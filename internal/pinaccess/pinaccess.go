// Package pinaccess implements BonnRoute's off-track pin access (paper
// §4.3): for each pin a catalogue of several DRC-clean access paths
// connecting it to nearby on-track points is precomputed with the
// τ-feasible blockage-grid search (§3.8); per circuit a conflict-free
// selection — one path per pin, pairwise clean also under diff-net rules
// — is found by branch and bound with destructive bounding, scored by
// endpoint spreading, blocked tracks, and length (Fig. 7). Catalogues
// are shared between geometrically equivalent cell instances (circuit
// classes).
package pinaccess

import (
	"fmt"
	"sort"

	"bonnroute/internal/blockgrid"
	"bonnroute/internal/chip"
	"bonnroute/internal/geom"
	"bonnroute/internal/tracks"
)

// AccessPath is one candidate connection from a pin to an on-track point.
type AccessPath struct {
	// Pin is the prototype pin index.
	Pin int
	// Layer is the wiring layer the path runs on.
	Layer int
	// Points runs from a point on the pin metal to End; all segments
	// honour the layer's minimum segment length.
	Points []geom.Point
	// End is the on-track endpoint (a track-graph vertex position).
	End geom.Point
	// Length is the total ℓ1 length.
	Length int
}

// Translated returns the path moved by offset (instance placement).
func (a AccessPath) Translated(off geom.Point) AccessPath {
	out := a
	out.Points = make([]geom.Point, len(a.Points))
	for i, p := range a.Points {
		out.Points[i] = p.Add(off)
	}
	out.End = a.End.Add(off)
	return out
}

// Ref is a compact reference to an access-path instance: a pointer to
// the shared prototype-frame path (owned by a catalogue and shared by
// every cell instance of the circuit class) plus the instance's
// placement offset. The detail router stores one Ref per pin — 24 bytes,
// no allocation — instead of a translated per-pin copy of the whole
// path, which is what keeps pin-access bookkeeping affordable at 10⁵
// nets. Paths that are inherently per-pin (dynamic stubs, ECO hints)
// wrap their own AccessPath with a zero offset.
type Ref struct {
	Path *AccessPath
	Off  geom.Point
}

// Valid reports whether the ref points at a path.
func (r Ref) Valid() bool { return r.Path != nil }

// Layer returns the wiring layer the path runs on.
func (r Ref) Layer() int { return r.Path.Layer }

// NumPoints returns the number of path points.
func (r Ref) NumPoints() int { return len(r.Path.Points) }

// Point returns the i-th path point in the instance frame.
func (r Ref) Point(i int) geom.Point { return r.Path.Points[i].Add(r.Off) }

// End returns the on-track endpoint in the instance frame.
func (r Ref) End() geom.Point { return r.Path.End.Add(r.Off) }

// Length returns the total ℓ1 length (translation-invariant).
func (r Ref) Length() int { return r.Path.Length }

// Materialize returns a standalone instance-frame copy of the path.
func (r Ref) Materialize() *AccessPath {
	ap := r.Path.Translated(r.Off)
	return &ap
}

// Catalogue holds the candidate paths of one circuit class.
type Catalogue struct {
	// PerPin[pi] lists candidates for prototype pin pi, best first.
	PerPin [][]AccessPath
	// Chosen[pi] indexes the conflict-free primary access path per pin
	// (-1 when the pin has no candidates).
	Chosen []int
	// BBNodes is the number of branch-and-bound search nodes expanded by
	// the conflict-free selection for this catalogue (an observability
	// statistic: the §4.3 search effort).
	BBNodes int
}

// Params tune catalogue construction.
type Params struct {
	// Radius is how far (in DBU) from the pin on-track endpoints are
	// sought; 0 uses 4 pitches.
	Radius int
	// MaxCandidates bounds the catalogue size per pin; 0 uses 6.
	MaxCandidates int
	// Spacing is the diff-net clearance used in the pairwise conflict
	// test; 0 uses the layer-0 base spacing.
	Spacing int
	// HalfWidth is the wire half-width of access metal; 0 derives it
	// from the deck.
	HalfWidth int
}

// ClassKey identifies the circuit class of a placed cell: prototype,
// mirroring, and the cell origin's phase relative to the track lattice
// (cells whose surroundings align identically share catalogues; the
// synthetic generator places cells on slot multiples, so the phase is
// usually constant).
func ClassKey(c *chip.Chip, cellIdx int, pitch int) string {
	cell := &c.Cells[cellIdx]
	return fmt.Sprintf("p%d-m%v-ox%d-oy%d",
		cell.Proto, cell.Mirrored, cell.Origin.X%pitch, cell.Origin.Y%pitch)
}

// BuildCatalogue computes the access-path catalogue of the circuit class
// represented by cell cellIdx, in instance coordinates of that cell (the
// caller translates for other instances of the same class by the origin
// difference).
func BuildCatalogue(c *chip.Chip, tg *tracks.Graph, cellIdx int, p Params) *Catalogue {
	cell := &c.Cells[cellIdx]
	proto := &c.Protos[cell.Proto]
	deck := c.Deck
	pitch := deck.Layers[0].Pitch
	if p.Radius <= 0 {
		p.Radius = 4 * pitch
	}
	if p.MaxCandidates <= 0 {
		p.MaxCandidates = 6
	}
	if p.Spacing <= 0 {
		p.Spacing = deck.Layers[0].Spacing[0].Spacing
	}
	if p.HalfWidth <= 0 {
		p.HalfWidth = deck.Layers[0].MinWidth / 2
	}

	cat := &Catalogue{
		PerPin: make([][]AccessPath, len(proto.Pins)),
		Chosen: make([]int, len(proto.Pins)),
	}

	// One pooled searcher serves every endpoint probe of the catalogue, so
	// the grid and Dijkstra buffers are reused across probes and classes.
	sr := blockgrid.GetSearcher()
	defer blockgrid.PutSearcher(sr)

	// Obstacles per layer in instance coordinates: cell blockages plus
	// the other pins of the same cell, inflated by half-width + spacing.
	infl := p.HalfWidth + p.Spacing
	obstaclesFor := func(pi, layer int) []geom.Rect {
		var out []geom.Rect
		for _, b := range proto.Blockages {
			if b.Layer == layer {
				out = append(out, cellRect(c, cell, b.Rect).Expanded(infl))
			}
		}
		for qi, shapes := range proto.Pins {
			if qi == pi {
				continue
			}
			for _, ps := range shapes {
				if ps.Layer == layer {
					out = append(out, cellRect(c, cell, ps.Rect).Expanded(infl))
				}
			}
		}
		return out
	}

	for pi, shapes := range proto.Pins {
		cat.Chosen[pi] = -1
		for _, ps := range shapes {
			layer := ps.Layer
			rect := cellRect(c, cell, ps.Rect)
			tau := deck.Layers[layer].MinSegLen
			start := rect.Center()
			bounds := rect.Expanded(p.Radius + 2*tau)
			obst := obstaclesFor(pi, layer)

			for _, end := range onTrackEndpoints(tg, layer, rect, p.Radius) {
				pts, length, ok := sr.Search(obst, start, end, tau, bounds)
				if !ok {
					continue
				}
				cat.PerPin[pi] = append(cat.PerPin[pi], AccessPath{
					Pin: pi, Layer: layer,
					Points: blockgrid.MergeCollinear(pts),
					End:    end, Length: length,
				})
			}
		}
		sort.Slice(cat.PerPin[pi], func(a, b int) bool {
			return cat.PerPin[pi][a].Length < cat.PerPin[pi][b].Length
		})
		if len(cat.PerPin[pi]) > p.MaxCandidates {
			cat.PerPin[pi] = cat.PerPin[pi][:p.MaxCandidates]
		}
	}

	sel, nodes, ok := ConflictFree(cat.PerPin, func(a, b *AccessPath) bool {
		return Conflicts(a, b, p.HalfWidth, p.Spacing)
	})
	cat.BBNodes = nodes
	if ok {
		copy(cat.Chosen, sel)
	} else {
		// Degenerate fallback: greedy per pin (some pins lose access).
		for pi := range cat.PerPin {
			if len(cat.PerPin[pi]) > 0 {
				cat.Chosen[pi] = 0
			}
		}
	}
	return cat
}

func cellRect(c *chip.Chip, cell *chip.Cell, r geom.Rect) geom.Rect {
	if cell.Mirrored {
		proto := &c.Protos[cell.Proto]
		w := proto.Size.XMax
		r = geom.Rect{XMin: w - r.XMax, YMin: r.YMin, XMax: w - r.XMin, YMax: r.YMax}
	}
	return r.Translated(cell.Origin)
}

// onTrackEndpoints lists track-graph vertices of the layer within radius
// of the pin, nearest first.
func onTrackEndpoints(tg *tracks.Graph, layer int, pin geom.Rect, radius int) []geom.Point {
	if layer >= tg.NumLayers() {
		return nil
	}
	l := &tg.Layers[layer]
	ctr := pin.Center()
	win := pin.Expanded(radius)
	var out []geom.Point
	ortho := win.Span(l.Dir.Perp())
	along := win.Span(l.Dir)
	for _, tc := range l.TracksRange(ortho.Lo, ortho.Hi) {
		for _, cc := range l.CrossRange(along.Lo, along.Hi) {
			var pt geom.Point
			if l.Dir == geom.Horizontal {
				pt = geom.Pt(cc, tc)
			} else {
				pt = geom.Pt(tc, cc)
			}
			out = append(out, pt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return ctr.Dist1(out[i]) < ctr.Dist1(out[j]) })
	if len(out) > 24 {
		out = out[:24]
	}
	return out
}

// Conflicts reports whether two access paths (of different pins, hence
// different nets) violate the diff-net clearance: any pair of their
// metal segments closer than spacing. Paths on different layers never
// conflict.
func Conflicts(a, b *AccessPath, halfWidth, spacing int) bool {
	if a.Layer != b.Layer {
		return false
	}
	for i := 1; i < len(a.Points); i++ {
		ra := segMetal(a.Points[i-1], a.Points[i], halfWidth)
		for j := 1; j < len(b.Points); j++ {
			rb := segMetal(b.Points[j-1], b.Points[j], halfWidth)
			if ra.Dist2Sq(rb) < int64(spacing)*int64(spacing) {
				return true
			}
		}
	}
	return false
}

func segMetal(a, b geom.Point, hw int) geom.Rect {
	return geom.MinkowskiSeg(geom.Rect{XMin: -hw, YMin: -hw, XMax: hw, YMax: hw}, a, b)
}

// ConflictFree selects one candidate per pin such that the selection is
// pairwise conflict-free and the total score — path length minus an
// endpoint-spreading bonus — is minimal. It is the branch and bound with
// destructive bounding of §4.3: candidates that conflict with every
// candidate of some other pin are deleted up front (and recursively), and
// the search prunes on a partial-cost lower bound. ok is false when no
// conflict-free selection exists. Pins without candidates are skipped
// (their selection stays -1). nodes reports how many branch-and-bound
// search nodes were expanded — the per-circuit effort statistic the
// observability layer surfaces.
func ConflictFree(perPin [][]AccessPath, conflict func(a, b *AccessPath) bool) (sel []int, nodes int, ok bool) {
	n := len(perPin)
	sel = make([]int, n)
	for i := range sel {
		sel[i] = -1
	}
	// Active pins (with candidates), ordered fewest-candidates-first.
	var order []int
	for pi := range perPin {
		if len(perPin[pi]) > 0 {
			order = append(order, pi)
		}
	}
	if len(order) == 0 {
		return sel, 0, true
	}

	// Destructive bounding: repeatedly delete candidates that conflict
	// with all candidates of another pin.
	alive := make([][]bool, n)
	for pi := range perPin {
		alive[pi] = make([]bool, len(perPin[pi]))
		for ci := range alive[pi] {
			alive[pi][ci] = true
		}
	}
	changed := true
	for changed {
		changed = false
		for _, pi := range order {
			for ci := range perPin[pi] {
				if !alive[pi][ci] {
					continue
				}
				for _, qi := range order {
					if qi == pi {
						continue
					}
					allConflict := true
					for di := range perPin[qi] {
						if alive[qi][di] && !conflict(&perPin[pi][ci], &perPin[qi][di]) {
							allConflict = false
							break
						}
					}
					if allConflict {
						alive[pi][ci] = false
						changed = true
						break
					}
				}
			}
		}
	}
	for _, pi := range order {
		any := false
		for _, a := range alive[pi] {
			if a {
				any = true
				break
			}
		}
		if !any {
			return sel, nodes, false
		}
	}

	sort.Slice(order, func(i, j int) bool {
		return countAlive(alive[order[i]]) < countAlive(alive[order[j]])
	})

	best := int(^uint(0) >> 2)
	bestSel := make([]int, n)
	found := false
	cur := make([]int, n)
	for i := range cur {
		cur[i] = -1
	}

	// Lower bound of remaining pins: each at least its cheapest alive
	// candidate.
	minRest := make([]int, len(order)+1)
	for i := len(order) - 1; i >= 0; i-- {
		pi := order[i]
		cheapest := int(^uint(0) >> 2)
		for ci := range perPin[pi] {
			if alive[pi][ci] && perPin[pi][ci].Length < cheapest {
				cheapest = perPin[pi][ci].Length
			}
		}
		minRest[i] = minRest[i+1] + cheapest
	}

	// The spreading bonus subtracts up to maxBonus from a completed
	// selection; the prune bound must concede it.
	maxBonus := 0
	for i, pi := range order {
		for _, qi := range order[i+1:] {
			for ci := range perPin[pi] {
				for di := range perPin[qi] {
					if d := perPin[pi][ci].End.Dist1(perPin[qi][di].End) / 8; d > maxBonus {
						maxBonus = d
					}
				}
			}
		}
	}

	var rec func(i, cost int)
	rec = func(i, cost int) {
		nodes++
		if cost+minRest[i]-maxBonus >= best {
			return
		}
		if i == len(order) {
			total := cost - spreadBonus(perPin, cur, order)
			if total < best {
				best = total
				copy(bestSel, cur)
				found = true
			}
			return
		}
		pi := order[i]
		for ci := range perPin[pi] {
			if !alive[pi][ci] {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				qi := order[j]
				if conflict(&perPin[pi][ci], &perPin[qi][cur[qi]]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cur[pi] = ci
			rec(i+1, cost+perPin[pi][ci].Length)
			cur[pi] = -1
		}
	}
	rec(0, 0)
	if !found {
		return sel, nodes, false
	}
	return bestSel, nodes, true
}

// spreadBonus rewards selections whose endpoints are far apart (the
// §4.3 spreading criterion anticipating local congestion).
func spreadBonus(perPin [][]AccessPath, sel []int, order []int) int {
	minD := int(^uint(0) >> 2)
	cnt := 0
	for i, pi := range order {
		for _, qi := range order[i+1:] {
			a := &perPin[pi][sel[pi]]
			b := &perPin[qi][sel[qi]]
			if d := a.End.Dist1(b.End); d < minD {
				minD = d
			}
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	// Spreading is a tiebreaker relative to path length: anticipating
	// congestion must not buy detours wholesale.
	return minD / 8
}

func countAlive(a []bool) int {
	n := 0
	for _, x := range a {
		if x {
			n++
		}
	}
	return n
}
