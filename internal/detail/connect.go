package detail

import (
	"sort"

	"sync/atomic"

	"bonnroute/internal/drc"
	"bonnroute/internal/fastgrid"
	"bonnroute/internal/geom"
	"bonnroute/internal/pathsearch"
	"bonnroute/internal/rules"
	"bonnroute/internal/shapegrid"
)

// worker bundles the per-goroutine routing state of one round: a pooled
// path-search engine plus — in parallel strip rounds — the owned region.
// A restricted worker's reads and writes all stay inside region: search
// areas are clipped to clamp (the region shrunk by the commit margin at
// interior strip boundaries), rip-up is limited to victims whose extent
// is victimMargin inside the region, and access-path regeneration is
// skipped for nets too close to the boundary. The restriction rules
// depend only on chip geometry — never on the worker count — so any
// interleaving of strip tasks produces the serial strip-order result.
// An unrestricted worker (serial rounds, RouteNet) routes anywhere.
type worker struct {
	e          *pathsearch.Engine
	restricted bool
	region     geom.Rect
	clamp      geom.Rect
}

// containedIn reports whether rect, expanded by margin and clipped to
// the chip area, lies wholly inside region.
func (r *Router) containedIn(region, rect geom.Rect, margin int) bool {
	return region.ContainsRect(rect.Expanded(margin).Intersection(r.Chip.Area))
}

// netExtent is the bounding box of everything the net owns in the
// routing space: pin shapes, access-path points, committed segments, via
// pads, and patches.
func (r *Router) netExtent(ni int) geom.Rect {
	var bbox geom.Rect
	n := &r.Chip.Nets[ni]
	for _, pi := range n.Pins {
		for _, s := range r.Chip.Pins[pi].Shapes {
			bbox = bbox.Union(s.Rect)
		}
	}
	rt := &r.routes[ni]
	for _, ap := range rt.access {
		if !ap.Valid() {
			continue
		}
		for i := 0; i < ap.NumPoints(); i++ {
			p := ap.Point(i)
			bbox = bbox.Union(geom.Rect{XMin: p.X, YMin: p.Y, XMax: p.X + 1, YMax: p.Y + 1})
		}
	}
	for _, s := range rt.segments {
		bbox = bbox.Union(geom.R(s.A.X, s.A.Y, s.B.X, s.B.Y))
	}
	for _, v := range rt.vias {
		pad := geom.Rect{XMin: v.At.X, YMin: v.At.Y, XMax: v.At.X + 1, YMax: v.At.Y + 1}.
			Expanded(2 * r.Chip.Deck.Layers[0].Pitch)
		bbox = bbox.Union(pad)
	}
	for _, p := range rt.patches {
		bbox = bbox.Union(p.sh.Rect)
	}
	return bbox
}

// searchConfig builds the path-search configuration for one net: the
// fast grid answers most legality queries; blocked verdicts are refined
// with net-aware rule-checker queries so the net's own shapes (pins,
// reservations, earlier wiring) never block it — the equivalent of the
// paper's temporary removal of component shapes from routing space
// (§4.4).
func (r *Router) searchConfig(ni int, area *pathsearch.Area, pi pathsearch.FutureCost,
	maxNeed drc.Need, penalty func(drc.Need) int) *pathsearch.Config {

	net := int32(ni)
	wt := r.wireTypeOf(ni)
	slot := r.FG.Slot(wt)
	if r.opt.NoFastGrid {
		slot = -1 // every query goes to the rule checker
	}

	// The fast grid is net-independent, so cached "blocked" verdicts near
	// the net's OWN geometry must be re-checked net-aware (the stand-in
	// for §4.4's temporary removal of component shapes). Anywhere else a
	// blocked verdict is final — refinement is scoped to the net's own
	// boxes, which keeps the fast-grid hit rate high.
	ownBoxes := r.ownGeometry(ni)
	nearOwn := func(z int, rect geom.Rect) bool {
		for _, b := range ownBoxes[z] {
			if b.Intersects(rect) {
				return true
			}
		}
		return false
	}

	return &pathsearch.Config{
		Tracks:       r.TG,
		Costs:        r.costs,
		Pi:           pi,
		Area:         area,
		MaxNeed:      maxNeed,
		RipupPenalty: penalty,
		WireRuns: func(z, ti, lo, hi int, visit func(lo, hi int, need drc.Need)) {
			layer := &r.TG.Layers[z]
			model := wt.Oriented(z, layer.Dir, layer.Dir)
			coord := layer.Coords[ti]
			if slot < 0 {
				// Uncached wire type: full rule-checker sweep.
				atomic.AddInt64(&r.FG.Misses, 1)
				r.Space.TrackNeeds(z, layer.Dir, coord, geom.Iv(lo, hi+1), model, net, visit)
				return
			}
			// One track sweep answered from the cache counts as a hit;
			// each blocked run that must be refined by the rule checker
			// counts as a miss (the §3.6 accounting).
			atomic.AddInt64(&r.FG.Hits, 1)
			r.FG.Runs(z, ti, lo, hi+1, func(rlo, rhi int, word uint64) bool {
				need := fastgrid.PrefNeedAt(word, slot)
				if need == 0 {
					return true
				}
				var runRect geom.Rect
				if layer.Dir == geom.Horizontal {
					runRect = geom.Rect{XMin: rlo, XMax: rhi, YMin: coord, YMax: coord + 1}
				} else {
					runRect = geom.Rect{XMin: coord, XMax: coord + 1, YMin: rlo, YMax: rhi}
				}
				if !nearOwn(z, runRect) {
					visit(rlo, rhi, need) // blocked by others: verdict final
					return true
				}
				// Blocked near the net's own geometry: refine with a
				// net-aware sweep over just this run.
				atomic.AddInt64(&r.FG.Misses, 1)
				r.Space.TrackNeeds(z, layer.Dir, coord, geom.Iv(rlo, rhi), model, net, visit)
				return true
			})
		},
		JogNeed: func(z, lowerTi, along int) drc.Need {
			need, ok := r.FG.JogUpNeed(z, lowerTi, along, wt)
			if ok && need == 0 {
				return 0
			}
			layer := &r.TG.Layers[z]
			c0, c1 := layer.Coords[lowerTi], layer.Coords[lowerTi+1]
			var a, b geom.Point
			if layer.Dir == geom.Horizontal {
				a, b = geom.Pt(along, c0), geom.Pt(along, c1)
			} else {
				a, b = geom.Pt(c0, along), geom.Pt(c1, along)
			}
			if ok && !nearOwn(z, geom.R(a.X, a.Y, b.X, b.Y).Expanded(1)) {
				return need // blocked by others: verdict final
			}
			atomic.AddInt64(&r.FG.Misses, 1)
			return r.Space.SegmentNeed(z, a, b, wt, net)
		},
		ViaNeed: func(v, botTi, topTi int, pos geom.Point) drc.Need {
			need, ok := r.FG.ViaNeed(v, botTi, topTi, pos, wt)
			if ok && need == 0 {
				return 0
			}
			if ok {
				pt := geom.Rect{XMin: pos.X, YMin: pos.Y, XMax: pos.X + 1, YMax: pos.Y + 1}
				if !nearOwn(v, pt) && !nearOwn(v+1, pt) {
					return need
				}
			}
			atomic.AddInt64(&r.FG.Misses, 1)
			return r.Space.ViaNeed(v, pos, wt, net)
		},
	}
}

// ownGeometry collects per-layer bounding boxes of the net's own shapes
// (pins, access reservations, committed segments, via pads, patches),
// expanded by the worst-case interaction distance.
func (r *Router) ownGeometry(ni int) [][]geom.Rect {
	out := make([][]geom.Rect, r.Chip.NumLayers())
	add := func(z int, rect geom.Rect) {
		margin := r.Chip.Deck.MaxSpacing(z) + 2*r.Chip.Deck.Layers[z].Pitch
		out[z] = append(out[z], rect.Expanded(margin))
	}
	n := &r.Chip.Nets[ni]
	rt := &r.routes[ni]
	for _, pi := range n.Pins {
		for _, s := range r.Chip.Pins[pi].Shapes {
			add(s.Layer, s.Rect)
		}
	}
	for _, ap := range rt.access {
		if !ap.Valid() {
			continue
		}
		var bbox geom.Rect
		for i := 0; i < ap.NumPoints(); i++ {
			p := ap.Point(i)
			bbox = bbox.Union(geom.Rect{XMin: p.X, YMin: p.Y, XMax: p.X + 1, YMax: p.Y + 1})
		}
		add(ap.Layer(), bbox)
	}
	for _, s := range rt.segments {
		add(s.Z, geom.R(s.A.X, s.A.Y, s.B.X, s.B.Y))
	}
	for _, v := range rt.vias {
		pad := geom.Rect{XMin: v.At.X, YMin: v.At.Y, XMax: v.At.X + 1, YMax: v.At.Y + 1}.Expanded(2 * r.Chip.Deck.Layers[0].Pitch)
		add(v.V, pad)
		add(v.V+1, pad)
	}
	for _, p := range rt.patches {
		add(p.z, p.sh.Rect)
	}
	return out
}

// netComponents groups the net's pins into connected components based on
// committed wiring. Each component carries its on-track attachment
// points.
type component struct {
	pins   []int // pin slots within the net
	points []geom.Point3
}

// components derives the current components of a net: initially one per
// pin; pins become connected through committed wiring. Connectivity is
// tracked through points: pin attachment points, committed segment
// endpoints and interior crossings, and via locations; two elements join
// when they coincide or a point lies on a segment.
func (r *Router) components(ni int) []component {
	n := &r.Chip.Nets[ni]
	rt := &r.routes[ni]

	attach := make([]geom.Point3, len(n.Pins))
	for k := range n.Pins {
		attach[k] = r.pinAttachment(ni, k)
	}

	// Element ids: pins [0, P), then one per distinct point.
	P := len(n.Pins)
	pointID := map[geom.Point3]int{}
	var points []geom.Point3
	idOf := func(p geom.Point3) int {
		if id, ok := pointID[p]; ok {
			return id
		}
		id := P + len(points)
		pointID[p] = id
		points = append(points, p)
		return id
	}
	// Register all relevant points up front.
	for k := range n.Pins {
		idOf(attach[k])
	}
	segPoints := r.segmentPoints(ni)
	for _, p := range segPoints {
		idOf(p)
	}
	for _, v := range rt.vias {
		idOf(geom.Pt3(v.At.X, v.At.Y, v.V))
		idOf(geom.Pt3(v.At.X, v.At.Y, v.V+1))
	}

	parent := make([]int, P+len(points))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	for k := range n.Pins {
		union(k, idOf(attach[k]))
	}
	// Segments connect every registered point lying on them.
	for _, s := range rt.segments {
		a := idOf(geom.Pt3(s.A.X, s.A.Y, s.Z))
		union(a, idOf(geom.Pt3(s.B.X, s.B.Y, s.Z)))
		for p, id := range pointID {
			if p.Z == s.Z && onSegment(s, p.XY()) {
				union(a, id)
			}
		}
	}
	for _, v := range rt.vias {
		union(idOf(geom.Pt3(v.At.X, v.At.Y, v.V)), idOf(geom.Pt3(v.At.X, v.At.Y, v.V+1)))
	}

	groups := map[int]*component{}
	for k := range n.Pins {
		root := find(k)
		g := groups[root]
		if g == nil {
			g = &component{}
			groups[root] = g
		}
		g.pins = append(g.pins, k)
		g.points = append(g.points, attach[k])
	}
	// Wiring points enlarge their group's attachment set.
	for _, p := range segPoints {
		if g, ok := groups[find(idOf(p))]; ok {
			g.points = append(g.points, p)
		}
	}

	out := make([]component, 0, len(groups))
	for _, g := range groups {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pins[0] < out[j].pins[0] })
	return out
}

// pinAttachment is the on-track point where pin slot k of net ni is
// entered: the reserved access path endpoint, or the nearest track vertex
// to the pin center as fallback.
func (r *Router) pinAttachment(ni, k int) geom.Point3 {
	rt := &r.routes[ni]
	n := &r.Chip.Nets[ni]
	if ap := rt.access[k]; ap.Valid() {
		e := ap.End()
		return geom.Pt3(e.X, e.Y, ap.Layer())
	}
	p := &r.Chip.Pins[n.Pins[k]]
	s := p.Shapes[0]
	z := s.Layer
	l := &r.TG.Layers[z]
	ctr := s.Rect.Center()
	if len(l.Coords) == 0 {
		return geom.Pt3(ctr.X, ctr.Y, z)
	}
	tc := l.NearestTrack(ctr.Coord(l.Dir.Perp()))
	cc := nearestIn(l.Cross, ctr.Coord(l.Dir))
	if l.Dir == geom.Horizontal {
		return geom.Pt3(cc, tc, z)
	}
	return geom.Pt3(tc, cc, z)
}

func nearestIn(sorted []int, x int) int {
	if len(sorted) == 0 {
		return x
	}
	i := sort.SearchInts(sorted, x)
	if i == 0 {
		return sorted[0]
	}
	if i == len(sorted) {
		return sorted[len(sorted)-1]
	}
	if sorted[i]-x < x-sorted[i-1] {
		return sorted[i]
	}
	return sorted[i-1]
}

// segmentPoints returns on-track points along the net's committed
// segments (endpoints plus up to 32 interior crossings each) so the next
// connection can attach anywhere on the existing wiring.
func (r *Router) segmentPoints(ni int) []geom.Point3 {
	var out []geom.Point3
	for _, s := range r.routes[ni].segments {
		out = append(out, geom.Pt3(s.A.X, s.A.Y, s.Z), geom.Pt3(s.B.X, s.B.Y, s.Z))
		layer := &r.TG.Layers[s.Z]
		if s.A.Coord(layer.Dir.Perp()) != s.B.Coord(layer.Dir.Perp()) {
			continue // jog: endpoints only
		}
		lo := min(s.A.Coord(layer.Dir), s.B.Coord(layer.Dir))
		hi := max(s.A.Coord(layer.Dir), s.B.Coord(layer.Dir))
		cr := layer.CrossRange(lo, hi)
		step := 1
		if len(cr) > 32 {
			step = len(cr) / 32
		}
		for i := 0; i < len(cr); i += step {
			var p geom.Point3
			if layer.Dir == geom.Horizontal {
				p = geom.Pt3(cr[i], s.A.Y, s.Z)
			} else {
				p = geom.Pt3(s.A.X, cr[i], s.Z)
			}
			out = append(out, p)
		}
	}
	return out
}

func onSegment(s Segment, p geom.Point) bool {
	if s.A.X == s.B.X {
		return p.X == s.A.X && p.Y >= min(s.A.Y, s.B.Y) && p.Y <= max(s.A.Y, s.B.Y)
	}
	return p.Y == s.A.Y && p.X >= min(s.A.X, s.B.X) && p.X <= max(s.A.X, s.B.X)
}

// routeArea derives the search area: the net's global corridor when
// available (±margin tiles, plus all layers of those tiles), otherwise
// the bounding box of the attachment points with margin. Restricted
// workers clip every rectangle to their clamp so the search — and any
// wiring it commits — stays inside the owned region.
func (r *Router) routeArea(w *worker, ni int, S, T []geom.Point3) *pathsearch.Area {
	nl := r.Chip.NumLayers()
	area := pathsearch.NewArea(nl)
	addAll := func(rect geom.Rect) {
		if w.restricted {
			rect = rect.Intersection(w.clamp)
		}
		if rect.Empty() {
			return
		}
		for z := 0; z < nl; z++ {
			// Crossing existing wiring requires neighbor layers (§4.4),
			// so open every rectangle on every layer.
			area.Add(z, rect)
		}
	}
	// §4.4: nets reconsidered after failures get an extended routing
	// area; from the third attempt the corridor is dropped entirely.
	attempt := r.routes[ni].attempt
	margin := corridorMarginTiles * max(1, attempt)
	useCorridor := attempt < 3
	if useCorridor && r.corridors != nil && r.ggraph != nil && ni < len(r.corridors) && len(r.corridors[ni]) > 0 {
		g := r.ggraph
		for _, e := range r.corridors[ni] {
			a, b := g.EdgeEndpoints(int(e))
			for _, v := range [2]int{a, b} {
				tx, ty, _ := g.VertexCoords(v)
				rect := g.TileRect(max(0, tx-margin), max(0, ty-margin)).
					Union(g.TileRect(min(g.NX-1, tx+margin), min(g.NY-1, ty+margin)))
				addAll(rect)
			}
		}
		return area
	}
	var bbox geom.Rect
	for _, p := range append(append([]geom.Point3(nil), S...), T...) {
		bbox = bbox.Union(geom.Rect{XMin: p.X, YMin: p.Y, XMax: p.X + 1, YMax: p.Y + 1})
	}
	pitch := r.Chip.Deck.Layers[0].Pitch
	addAll(bbox.Expanded(16 * pitch * max(1, attempt)).Intersection(r.Chip.Area))
	return area
}

// RouteNet connects all pins of net ni. It returns true when the net is
// fully routed. ripupBudget counts how many victim nets may be ripped.
func (r *Router) RouteNet(ni int, ripupBudget int) bool {
	w := &worker{e: r.acquireEngine()}
	ok := r.routeNetWith(w, ni, ripupBudget)
	r.releaseEngine(w.e)
	return ok
}

// routeNetWith is RouteNet on a caller-held worker, so batch callers
// (parallel rounds, rip-up recursion) reuse one engine's pools across
// many nets instead of paying a checkout per net.
func (r *Router) routeNetWith(w *worker, ni int, ripupBudget int) bool {
	rt := &r.routes[ni]
	rt.attempt++
	if rt.attempt >= 2 {
		// §4.4: regenerate access paths whose endpoints have been walled
		// in by other nets' wiring since reservation time. Restricted
		// workers only do this when the regeneration provably stays in
		// their region (a geometry-only rule, identical for every worker
		// count).
		if !w.restricted || r.containedIn(w.region, r.netExtent(ni), r.victimMargin) {
			r.refreshAccess(ni)
		}
	}
	for iter := 0; iter < 4*len(r.Chip.Nets[ni].Pins); iter++ {
		comps := r.components(ni)
		if len(comps) <= 1 {
			rt.routed = true
			r.patchNotches(ni)
			r.recomputeLength(ni)
			return true
		}
		if !r.connectOnce(w, ni, comps, ripupBudget) {
			rt.routed = false
			return false
		}
	}
	rt.routed = false
	return false
}

// patchNotches is the §4.4 same-net postprocessing where on-track and
// off-track paths meet: slots narrower than the notch spacing between the
// net's own shapes are filled with patch metal where that is legal. The
// queries and fills reach at most 4·pitch beyond the net's own shapes,
// which the region clamp margins account for.
func (r *Router) patchNotches(ni int) {
	net := int32(ni)
	rt := &r.routes[ni]

	var bbox geom.Rect
	for _, s := range rt.segments {
		bbox = bbox.Union(geom.R(s.A.X, s.A.Y, s.B.X, s.B.Y))
	}
	for _, ap := range rt.access {
		if !ap.Valid() {
			continue
		}
		for i := 0; i < ap.NumPoints(); i++ {
			p := ap.Point(i)
			bbox = bbox.Union(geom.Rect{XMin: p.X, YMin: p.Y, XMax: p.X + 1, YMax: p.Y + 1})
		}
	}
	if bbox.Empty() {
		return
	}
	bbox = bbox.Expanded(4 * r.Chip.Deck.Layers[0].Pitch)

	for z := range r.Space.Wiring {
		ns := r.Chip.Deck.Layers[z].NotchSpacing
		var own []shapegrid.Shape
		r.Space.Wiring[z].Query(bbox, func(sh shapegrid.Shape) bool {
			if sh.Net == net {
				own = append(own, sh)
			}
			return true
		})
		rects := make([]geom.Rect, len(own))
		for i := range own {
			rects[i] = own[i].Rect
		}
		for i := range own {
			for j := i + 1; j < len(own); j++ {
				gap2 := own[i].Rect.Dist2Sq(own[j].Rect)
				if gap2 == 0 || gap2 >= int64(ns)*int64(ns) {
					continue
				}
				box := drc.GapBox(own[i].Rect, own[j].Rect)
				if box.Empty() {
					continue
				}
				for _, piece := range geom.SubtractRects(box, rects) {
					if r.Space.RectNeed(z, piece, rules.ClassStandard, net) != 0 {
						continue
					}
					sh := shapegrid.Shape{
						Rect: piece, Net: net,
						Class: rules.ClassStandard,
						Ripup: r.ripupLevelOf(ni),
						Kind:  shapegrid.KindWire,
					}
					r.Space.AddShape(z, sh)
					r.FG.OnShapeAdded(z, sh)
					rt.patches = append(rt.patches, patchRec{z: z, sh: sh})
					rects = append(rects, piece)
				}
			}
		}
	}
}

// connectOnce connects the first component of the net to any other.
func (r *Router) connectOnce(w *worker, ni int, comps []component, ripupBudget int) bool {
	src := comps[0]
	var T []geom.Point3
	compOf := map[geom.Point3]int{}
	for ci := 1; ci < len(comps); ci++ {
		for _, p := range comps[ci].points {
			T = append(T, p)
			compOf[p] = ci
		}
	}
	S := src.points
	area := r.routeArea(w, ni, S, T)
	// π_H toward T (DESIGN.md §12) comes from the engine's future-cost
	// cache, which reuses the previous structure when the same net
	// retries with unchanged targets (rip-up attempts) and memoizes via
	// lower bounds across nets sharing target layers.
	pi := w.e.HFutureFor(int32(ni), r.Chip.NumLayers(), r.costs, T)

	var path *pathsearch.Path
	if r.opt.NodeSearch {
		path = w.e.NodeSearch(r.searchConfig(ni, area, pi, 0, nil), S, T)
	} else {
		path = w.e.Search(r.searchConfig(ni, area, pi, 0, nil), S, T)
	}

	// Rip-up uses the interval engine in both flows (the baseline's
	// negotiation-style rip-up shares this machinery).
	if path == nil && ripupBudget > 0 {
		// Rip-up mode (§4.2/§4.4): allow standard-level victims at a
		// penalty that grows with this net's attempts.
		rt := &r.routes[ni]
		penaltyBase := (1 + rt.attempt) * 20 * r.Chip.Deck.Layers[0].Pitch
		path = w.e.Search(r.searchConfig(ni, area, pi,
			shapegrid.RipupStandard+1,
			func(need drc.Need) int { return penaltyBase * int(need) }), S, T)
		if path != nil {
			if !r.commitWithRipup(w, ni, path, ripupBudget) {
				return false
			}
			return true
		}
	}
	if path == nil {
		return false
	}
	r.commitPath(ni, path)
	return true
}

// commitPath inserts a found path into the routing space. The striped
// shape grid and fast grid take their own per-stripe locks; callers on
// restricted workers guarantee the path lies inside their clamp.
func (r *Router) commitPath(ni int, path *pathsearch.Path) {
	rt := &r.routes[ni]
	wt := r.wireTypeOf(ni)
	level := r.ripupLevelOf(ni)
	net := int32(ni)
	pts := path.Points
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if a.Z == b.Z {
			seg := r.postprocessSegment(ni, Segment{Z: a.Z, A: a.XY(), B: b.XY()})
			sh := r.Space.AddWire(seg.Z, seg.A, seg.B, wt, net, level)
			r.FG.OnShapeAdded(seg.Z, sh)
			rt.segments = append(rt.segments, seg)
		} else {
			lo, hi := a.Z, b.Z
			if lo > hi {
				lo, hi = hi, lo
			}
			for v := lo; v < hi; v++ {
				bot, top, cut, proj := r.Space.ViaShapes(v, a.XY(), wt, net, level)
				r.Space.AddVia(v, a.XY(), wt, net, level)
				r.FG.OnShapeAdded(v, bot)
				r.FG.OnShapeAdded(v+1, top)
				r.FG.OnCutAdded(v, cut)
				if proj != nil {
					r.FG.OnCutAdded(v+1, *proj)
				}
				rt.vias = append(rt.vias, ViaRec{V: v, At: a.XY()})
			}
		}
	}
}

// postprocessSegment applies the §4.4 same-net cleanup: segments shorter
// than the minimum segment length are stretched symmetrically — but only
// when the grown metal stays legal (growth must never introduce diff-net
// violations; a residual same-net error is preferable, per §5.2's
// priority ordering).
func (r *Router) postprocessSegment(ni int, s Segment) Segment {
	lr := &r.Chip.Deck.Layers[s.Z]
	length := s.A.Dist1(s.B)
	if length >= lr.MinSegLen || length == 0 {
		return s
	}
	grow := (lr.MinSegLen - length + 1) / 2
	g := s
	if g.A.X == g.B.X {
		if g.A.Y < g.B.Y {
			g.A.Y -= grow
			g.B.Y += grow
		} else {
			g.A.Y += grow
			g.B.Y -= grow
		}
	} else {
		if g.A.X < g.B.X {
			g.A.X -= grow
			g.B.X += grow
		} else {
			g.A.X += grow
			g.B.X -= grow
		}
	}
	if r.Space.SegmentNeed(g.Z, g.A, g.B, r.wireTypeOf(ni), int32(ni)) != 0 {
		return s
	}
	return g
}

// commitWithRipup removes the victim nets blocking the path, commits the
// path, and re-routes the victims (bounded recursion, §4.4). A restricted
// worker only proceeds when every victim is wholly contained in its
// region (§5.1: "only changes that do not affect regions assigned to
// other threads"); cross-strip victims defer the net to a later, wider
// round.
func (r *Router) commitWithRipup(w *worker, ni int, path *pathsearch.Path, budget int) bool {
	wt := r.wireTypeOf(ni)
	net := int32(ni)

	// Victims: nets whose removable shapes conflict with the path metal.
	victims := map[int]bool{}
	pts := path.Points
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if a.Z != b.Z {
			// Via stack: pads on every traversed layer can conflict.
			lo, hi := a.Z, b.Z
			if lo > hi {
				lo, hi = hi, lo
			}
			for v := lo; v < hi; v++ {
				m := wt.Via(v, r.Chip.Dir(v))
				for _, rect := range []geom.Rect{m.Bot.Translated(a.XY()), m.Top.Translated(a.XY())} {
					z := v
					cl := m.BotClass
					if rect == m.Top.Translated(a.XY()) {
						z, cl = v+1, m.TopClass
					}
					for _, vn := range r.Space.BlockerNets(z, rect, cl, net, shapegrid.RipupStandard) {
						victims[int(vn)] = true
					}
				}
			}
			continue
		}
		layer := &r.TG.Layers[a.Z]
		dir := geom.Horizontal
		if a.X == b.X && a.Y != b.Y {
			dir = geom.Vertical
		}
		m := wt.Oriented(a.Z, dir, layer.Dir)
		rect := m.Metal(a.XY(), b.XY())
		for _, v := range r.Space.BlockerNets(a.Z, rect, m.Class, net, shapegrid.RipupStandard) {
			victims[int(v)] = true
		}
	}

	if len(victims) > budget {
		return false
	}
	if w.restricted {
		// Region ownership: a victim whose extent (plus margin) lies in
		// the owned region cannot simultaneously be assigned to another
		// strip — its pins are here — so ripping and re-routing it in
		// place is safe. Any victim that fails the test aborts the whole
		// rip-up (all-or-nothing keeps the check order-independent).
		for v := range victims {
			if !r.containedIn(w.region, r.netExtent(v), r.victimMargin) {
				return false
			}
		}
	}
	// Victim order determines the re-route sequence, which feeds back into
	// routing results — sort so rip-up is deterministic, not map-ordered.
	order := make([]int, 0, len(victims))
	for v := range victims {
		order = append(order, v)
	}
	sort.Ints(order)
	atomic.AddInt64(&r.ripups, int64(len(order)))
	for _, v := range order {
		r.unrouteNet(v)
	}
	r.commitPath(ni, path)

	// Re-route victims with a reduced budget.
	for _, v := range order {
		r.routeNetWith(w, v, budget-len(victims))
	}
	return true
}

// unrouteNet removes all committed wiring of a net (reservations stay).
// On restricted workers the caller has checked victim containment, so
// the removals and their fast-grid invalidations stay in the region.
func (r *Router) unrouteNet(ni int) {
	rt := &r.routes[ni]
	wt := r.wireTypeOf(ni)
	level := r.ripupLevelOf(ni)
	net := int32(ni)
	for _, s := range rt.segments {
		if r.Space.RemoveWire(s.Z, s.A, s.B, wt, net, level) {
			m := wt.Oriented(s.Z, segDir(s), r.Chip.Dir(s.Z))
			r.FG.OnWiringChange(s.Z, m.Metal(s.A, s.B))
		}
	}
	for _, v := range rt.vias {
		if r.Space.RemoveVia(v.V, v.At, wt, net, level) {
			pad := wt.Via(v.V, r.Chip.Dir(v.V))
			dirty := pad.Bot.Union(pad.Top).Translated(v.At)
			r.FG.OnWiringChange(v.V, dirty)
			r.FG.OnWiringChange(v.V+1, dirty)
			r.FG.OnCutChange(v.V, dirty)
			// An inter-layer via rule registers the cut a second time as
			// a projection in cut plane v+1 (removed by RemoveVia), so
			// that plane's caches go stale too — the commit path
			// invalidates it via OnCutAdded(v+1, proj).
			if pad.HasProjection {
				r.FG.OnCutChange(v.V+1, dirty)
			}
		}
	}
	// Notch patches belong to the ripped-up wiring: leaving them behind
	// would leak net metal into the space (phantom shapes that block
	// other nets and corrupt the audit).
	for _, p := range rt.patches {
		if r.Space.RemoveShape(p.z, p.sh) {
			r.FG.OnWiringChange(p.z, p.sh.Rect)
		}
	}
	rt.segments = nil
	rt.vias = nil
	rt.patches = nil
	rt.routed = false
	rt.length = 0
}

func segDir(s Segment) geom.Direction {
	if s.A.X == s.B.X && s.A.Y != s.B.Y {
		return geom.Vertical
	}
	return geom.Horizontal
}

// recomputeLength refreshes the net's length tally: committed segments
// plus access paths.
func (r *Router) recomputeLength(ni int) {
	rt := &r.routes[ni]
	var total int64
	for _, s := range rt.segments {
		total += int64(s.A.Dist1(s.B))
	}
	for _, ap := range rt.access {
		if ap.Valid() {
			total += int64(ap.Length())
		}
	}
	rt.length = total
}
