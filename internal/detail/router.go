// Package detail implements BonnRoute's detailed routing (paper §4):
// the per-net connection procedure of §4.4 — source/target construction
// from net components, corridor restriction from global routing,
// on-track interval path search combined with precomputed off-track pin
// access, same-net postprocessing, and rip-up sequences — plus the
// region-partitioned parallelism of §5.1.
package detail

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bonnroute/internal/blockgrid"
	"bonnroute/internal/chip"
	"bonnroute/internal/drc"
	"bonnroute/internal/fastgrid"
	"bonnroute/internal/geom"
	"bonnroute/internal/grid"
	"bonnroute/internal/pathsearch"
	"bonnroute/internal/pinaccess"
	"bonnroute/internal/rules"
	"bonnroute/internal/shapegrid"
	"bonnroute/internal/tracks"
)

// Fixed parameters of the detailed router, in units of the first
// layer's pitch where they are lengths.
const (
	// betaJog and gammaViaPitches are the edge cost parameters β and γ
	// of §4.1 (DESIGN.md: β = 2, γ = 4 pitches).
	betaJog         = 2
	gammaViaPitches = 4
	// corridorMarginTiles widens the global-routing corridor (§4.4),
	// once more per failed attempt.
	corridorMarginTiles = 1
	// accessRadiusPitches is the pin-access search radius (§4.3).
	accessRadiusPitches = 4
)

// Options tune the detailed router.
type Options struct {
	// Workers enables region-partitioned parallel routing (§5.1); ≤ 1 is
	// serial.
	Workers int
	// AccessCache seeds catalogue construction from a previous router's
	// circuit-class catalogues (incremental rerouting). Every cached path
	// is re-verified before reservation, so a cache from a different chip
	// state degrades gracefully to a rebuild, never to a bad reservation.
	AccessCache *AccessCache
	// TrackGraph reuses an existing track graph instead of optimizing
	// track positions for this chip (incremental rerouting: a small delta
	// does not justify re-optimizing tracks, and replayed wiring stays
	// on-track by construction). The graph must cover the same area and
	// layer directions; legality around delta geometry is still enforced
	// by the routing space, never by track positions.
	TrackGraph *tracks.Graph
	// AccessHints proposes a specific access path per global pin index
	// (incremental rerouting: the path the previous run reserved for the
	// surviving pin). A hint is used only after passing the same
	// verification as a catalogue path — on-vertex endpoint, clean
	// against the space, feasible continuation — so a stale hint falls
	// back to the catalogue, never into the space.
	AccessHints func(pi int) *pinaccess.AccessPath

	// Baseline/ablation knobs. The ISR-like comparison router of §5.3 is
	// this engine with the classical choices switched on:
	// NodeSearch labels vertices individually instead of intervals;
	// NoFastGrid answers every legality query from the rule checker;
	// UniformTracks skips track optimization; GreedyAccess picks each
	// pin's first candidate instead of the conflict-free selection.
	NodeSearch    bool
	NoFastGrid    bool
	UniformTracks bool
	GreedyAccess  bool
}

func (o *Options) setDefaults() {
	if o.Workers <= 0 {
		o.Workers = 1
	}
}

// Segment is one stick of routed wiring on a layer.
type Segment struct {
	Z    int
	A, B geom.Point
}

// ViaRec is a placed via between wiring layers V and V+1.
type ViaRec struct {
	V  int
	At geom.Point
}

// netRoute is the mutable routing state of one net.
type netRoute struct {
	routed   bool
	attempt  int
	segments []Segment
	vias     []ViaRec
	// access[k] is the reserved/used access path of the net's k-th pin
	// (invalid entries: pin has no off-track access and connects
	// directly). Refs share the catalogue's prototype-frame paths across
	// cell instances instead of holding per-pin translated copies.
	access []pinaccess.Ref
	// patches are same-net notch fills added by postprocessing (§4.4).
	patches []patchRec
	length  int64
}

type patchRec struct {
	z  int
	sh shapegrid.Shape
}

// Result summarizes a detailed routing run.
type Result struct {
	Routed, Failed int
	RipupEvents    int
	PerNet         []NetStats
	// Rounds is how many routing rounds ran (critical prepass, parallel
	// strip rounds, serial rounds, retries).
	Rounds int
	// RoundDetails describes each round: kind, strip count, failures,
	// per-strip task times, and the path-search effort attributed to the
	// round (engines are drained at task boundaries, so the effort of a
	// round's workers lands in that round's tally, not a later one's).
	RoundDetails []RoundStats
	// SearchStats is the total path-search effort of the run.
	SearchStats pathsearch.Stats
	// Cancelled reports that the run's context was cancelled mid-flow;
	// PerNet covers whatever had been committed by then.
	Cancelled bool
}

// AccessStats summarizes pin-access provisioning (§4.3): catalogue
// construction, branch-and-bound selection effort, and how many pins got
// reserved catalogue paths versus dynamically generated stubs.
type AccessStats struct {
	// Catalogues is the number of circuit classes built.
	Catalogues int
	// BBNodes sums branch-and-bound search nodes over all catalogues.
	BBNodes int
	// Reserved counts pins connected through reserved catalogue paths.
	Reserved int
	// Dynamic counts pins that needed dynamically generated access stubs.
	Dynamic int
	// CataloguesReused counts circuit classes taken from a previous
	// router's cache (Options.AccessCache) instead of being rebuilt.
	CataloguesReused int
	// Hinted counts pins reserved through a still-valid Options.
	// AccessHints path (incremental rerouting reuse).
	Hinted int
	// CatalogueTime is the wall time spent building catalogues.
	CatalogueTime time.Duration
}

// NetStats reports one net's routed geometry.
type NetStats struct {
	Routed bool
	Length int64
	Vias   int
}

// Router is the detailed router.
//
// Concurrency model: there is no global routing-space lock. The shape
// grid and fast grid are striped internally (per-stripe mutexes, reads
// against atomically published snapshots), so legality queries on the
// search hot path never block. Route's parallel strip rounds give each
// worker goroutine a region whose reads and writes — including rip-up —
// are provably confined to that region (see worker and the interaction
// margins below), so any interleaving produces the serial-strip-order
// result. Serial entry points (RouteNet, Unroute outside Route) are not
// themselves synchronized against each other; callers run them from one
// goroutine, as before.
type Router struct {
	Chip  *chip.Chip
	Space *drc.Space
	TG    *tracks.Graph
	FG    *fastgrid.Grid
	opt   Options

	costs  pathsearch.Costs
	routes []netRoute

	// corridors[ni] holds the net's global routing tree edges (nil: no
	// global guidance).
	corridors [][]int32
	ggraph    *grid.Graph

	// interact bounds how far a committed or removed shape's
	// data-structure effects reach (fast-grid dirty margins over all
	// wiring and via layers, plus a track gap of jog-field reach). Two
	// operations whose rectangles stay interact apart touch disjoint
	// interval-map state.
	interact int
	// clampMargin shrinks a worker's owned strip to its search clamp: a
	// path committed inside the clamp, with metal overhang and patch
	// fills, dirties fast-grid state that stays inside the strip.
	clampMargin int
	// victimMargin is the containment margin for in-strip rip-up: a
	// victim whose extent expanded by this stays inside the owned region
	// can be ripped and re-routed without escaping it (covers search
	// clamping, patching, and dynamic access-stub regeneration).
	victimMargin int
	// assignMargin is the strip-assignment margin: a net whose pin bbox
	// expanded by this fits in one strip routes there with useful slack.
	assignMargin int

	// Path-search engines are pooled per router: each worker goroutine
	// checks one out for a whole round (reusing its arenas, queue, and
	// future-cost cache across nets) and folds its counters into
	// searchStats on return. The free list keeps engine count bounded by
	// peak concurrency, not by net count.
	engineMu    sync.Mutex
	engines     []*pathsearch.Engine
	searchStats pathsearch.Stats

	// forceSteal (tests only) makes scheduler pop `pop` of worker `wi`
	// bypass the worker's own LPT share and steal instead. Stealing
	// reassigns whole region tasks, which cannot change results — the
	// hook exists so equivalence tests can exercise stolen schedules
	// deliberately.
	forceSteal func(wi, pop int) bool

	// ripups counts victim nets ripped up during routing (atomic: rip-up
	// commits happen on worker goroutines).
	ripups int64
	// dynAccess counts dynamically generated access stubs (atomic:
	// access refresh runs on worker goroutines during rip-up retries).
	dynAccess int64

	// accessStats is filled during construction (prepareAccess).
	accessStats AccessStats
	// accessCache is this router's own catalogue set, exported through
	// AccessCache() for reuse by a later incremental run.
	accessCache *AccessCache
}

// AccessCache carries circuit-class access catalogues from one router to
// a successor (see Options.AccessCache).
type AccessCache struct {
	cats  map[string]*pinaccess.Catalogue
	cells map[string]int
}

// AccessCache returns this router's circuit-class catalogues for reuse
// by a later run on a chip sharing the same cell list.
func (r *Router) AccessCache() *AccessCache { return r.accessCache }

// AccessStats reports the pin-access provisioning statistics gathered
// during construction and routing.
func (r *Router) AccessStats() AccessStats {
	st := r.accessStats
	st.Dynamic = int(atomic.LoadInt64(&r.dynAccess))
	return st
}

// RipupCount returns the number of victim nets ripped up so far.
func (r *Router) RipupCount() int64 { return atomic.LoadInt64(&r.ripups) }

// acquireEngine checks a path-search engine out of the router's free list
// (allocating on first use). Pair with releaseEngine.
func (r *Router) acquireEngine() *pathsearch.Engine {
	r.engineMu.Lock()
	defer r.engineMu.Unlock()
	if n := len(r.engines); n > 0 {
		e := r.engines[n-1]
		r.engines = r.engines[:n-1]
		return e
	}
	return pathsearch.NewEngine()
}

// releaseEngine returns an engine to the free list, merging its search
// counters into the router-wide tally. This explicit merge point is the
// only place search stats cross goroutines, so the counters need no
// atomics.
func (r *Router) releaseEngine(e *pathsearch.Engine) {
	r.engineMu.Lock()
	r.searchStats.Add(e.TakeStats())
	r.engines = append(r.engines, e)
	r.engineMu.Unlock()
}

// foldStats merges an already-drained per-engine tally into the
// router-wide total (Route drains engines at round boundaries so each
// round's effort is attributed to the round that did the work).
func (r *Router) foldStats(d pathsearch.Stats) {
	r.engineMu.Lock()
	r.searchStats.Add(d)
	r.engineMu.Unlock()
}

// SearchStats returns the accumulated path-search effort (labels, heap
// pops, materialized intervals, π reuses) over all completed RouteNet
// calls.
func (r *Router) SearchStats() pathsearch.Stats {
	r.engineMu.Lock()
	defer r.engineMu.Unlock()
	return r.searchStats
}

// buildTracks runs §3.5 track optimization (or uniform-pitch placement
// for the classical baseline) and assembles the track graph.
func buildTracks(c *chip.Chip, opt *Options, dirs []geom.Direction, obstacles [][]geom.Rect) *tracks.Graph {
	coords := make([][]int, c.NumLayers())
	for z := 0; z < c.NumLayers(); z++ {
		lr := c.Deck.Layers[z]
		span := c.Area.Span(c.Dir(z).Perp())
		if opt.UniformTracks {
			for t := span.Lo + lr.Pitch/2; t < span.Hi; t += lr.Pitch {
				coords[z] = append(coords[z], t)
			}
			continue
		}
		clear := lr.MinWidth/2 + lr.Spacing[0].Spacing
		usable := tracks.UsableAreas(c.Area, obstacles[z], clear)
		// §3.5: pin alignment — bonus rectangles modelling track positions
		// that give on-track pin access pull tracks onto pin rows.
		var bonus []geom.Rect
		w := 6 * lr.Pitch
		for pi := range c.Pins {
			for _, ps := range c.Pins[pi].Shapes {
				if ps.Layer != z {
					continue
				}
				ctr := ps.Rect.Center()
				if c.Dir(z) == geom.Horizontal {
					bonus = append(bonus, geom.Rect{XMin: ctr.X - w/2, YMin: ctr.Y, XMax: ctr.X + w/2, YMax: ctr.Y + 1})
				} else {
					bonus = append(bonus, geom.Rect{XMin: ctr.X, YMin: ctr.Y - w/2, XMax: ctr.X + 1, YMax: ctr.Y + w/2})
				}
			}
		}
		coords[z], _ = tracks.OptimizeWithBonus(usable, bonus, c.Dir(z), lr.Pitch, span)
	}
	return tracks.BuildGraph(c.Area, dirs, coords)
}

// New builds the routing space, tracks, fast grid, and pin-access
// reservations for the chip.
func New(c *chip.Chip, opt Options) *Router {
	opt.setDefaults()
	pitch := c.Deck.Layers[0].Pitch

	dirs := make([]geom.Direction, c.NumLayers())
	for z := range dirs {
		dirs[z] = c.Dir(z)
	}
	space := drc.NewSpace(c.Deck, c.Area, dirs)

	// Fixed geometry: blockages and pins.
	obstacles := make([][]geom.Rect, c.NumLayers())
	for _, o := range c.AllObstacles() {
		space.AddObstacle(o.Layer, o.Rect)
		obstacles[o.Layer] = append(obstacles[o.Layer], o.Rect)
	}
	for pi := range c.Pins {
		p := &c.Pins[pi]
		for _, s := range p.Shapes {
			space.AddPin(s.Layer, int32(p.Net), s.Rect)
		}
	}

	// Routing tracks (§3.5): optimize per layer over the usable areas,
	// or uniform-pitch tracks for the classical baseline. A caller-
	// provided graph (incremental rerouting) skips optimization entirely.
	tg := opt.TrackGraph
	if tg == nil {
		tg = buildTracks(c, &opt, dirs, obstacles)
	}

	fg := fastgrid.New(space, tg, c.WireTypes)

	r := &Router{
		Chip: c, Space: space, TG: tg, FG: fg, opt: opt,
		costs:  pathsearch.UniformCosts(c.NumLayers(), betaJog, gammaViaPitches*pitch),
		routes: make([]netRoute, len(c.Nets)),
	}
	// Interaction margins for region-partitioned parallelism (§5.1),
	// derived from the deck so that a worker confined to its strip
	// provably keeps all data-structure effects inside it. maxDirty is
	// the widest fast-grid invalidation any shape change can cause
	// (wiring sweeps use MaxSpacing(z)+4·pitch, cut sweeps the via-rule
	// analogue); one extra track gap covers the jog-field reach onto the
	// track below a dirty window.
	maxDirty, maxPitch, maxTau := 0, 0, 0
	for z := 0; z < c.NumLayers(); z++ {
		lr := &c.Deck.Layers[z]
		maxPitch = max(maxPitch, lr.Pitch)
		maxTau = max(maxTau, lr.MinSegLen)
		maxDirty = max(maxDirty, c.Deck.MaxSpacing(z)+4*lr.Pitch)
	}
	for v := range c.Deck.ViaLayers {
		vr := &c.Deck.ViaLayers[v]
		maxDirty = max(maxDirty, max(vr.CutSpacing, vr.InterLayerSpacing)+4*c.Deck.Layers[v].Pitch)
	}
	r.interact = maxDirty + maxPitch
	// Committed metal overhangs path points by at most a couple of
	// pitches (wide-wire half-width, line-end extension, min-segment
	// stretching, via pads); notch patching reaches 4·pitch beyond the
	// net's shapes.
	r.clampMargin = r.interact + 2*maxPitch + 4*pitch
	// A ripped victim is re-routed in place, which may regenerate access
	// stubs around its pins (candidate endpoints within 5 pitches, a
	// blockage-grid window of 6·τ) before searching inside the clamp.
	r.victimMargin = r.clampMargin + 5*pitch + 6*maxTau + r.interact
	// Assigned nets get their attempt-1 search box (bbox + 16·pitch)
	// inside the clamp, with slack for corridor tiles.
	r.assignMargin = r.clampMargin + 18*pitch
	for ni := range r.routes {
		r.routes[ni].access = make([]pinaccess.Ref, len(c.Nets[ni].Pins))
	}
	r.prepareAccess()
	// Pins without a catalogue path get a dynamically generated access
	// path (§4.4: "we dynamically generate new access paths") so every
	// pin is physically connected to its on-track attachment point.
	for ni := range r.routes {
		for k := range r.routes[ni].access {
			if !r.routes[ni].access[k].Valid() {
				r.dynamicAccess(ni, k)
			}
		}
	}
	return r
}

// dynamicAccess synthesizes and reserves an access path from pin slot k
// of net ni to its nearest on-track vertex: τ-feasible via the blockage
// grid when possible, an L-stub as last resort.
func (r *Router) dynamicAccess(ni, k int) {
	n := &r.Chip.Nets[ni]
	p := &r.Chip.Pins[n.Pins[k]]
	s := p.Shapes[0]
	z := s.Layer
	ctr := s.Rect.Center()
	att := r.pinAttachment(ni, k) // access[k] is nil → nearest-vertex fallback
	end := att.XY()
	// Candidate endpoints: nearby vertices from which an on-track wire
	// can actually start (§4.3's continuation criterion).
	pitch := r.Chip.Deck.Layers[0].Pitch
	var ends []geom.Point
	for _, cand := range r.vertexCandidatesNear(z, ctr, 5*pitch) {
		if r.continuationOK(z, cand, int32(ni)) {
			ends = append(ends, cand)
			if len(ends) == 8 {
				break
			}
		}
	}
	if len(ends) == 0 {
		ends = []geom.Point{end}
	}
	end = ends[0]
	tau := r.Chip.Deck.Layers[z].MinSegLen

	// Obstacles for the τ-feasible stub search: nearby fixed geometry of
	// other nets, inflated by half-width plus spacing.
	wt0 := r.Chip.WireTypes[0]
	// Clearance covers the worst-case metal extent around the stick:
	// half-width plus spacing, plus the pessimistic line-end extension
	// (stub segments are preferred-direction wires whose metal overhangs
	// the stick ends).
	lr0 := &r.Chip.Deck.Layers[z]
	infl := lr0.MinWidth/2 + lr0.Spacing[0].Spacing + lr0.LineEndSpacing
	win := geom.R(ctr.X, ctr.Y, end.X, end.Y).Expanded(6 * tau)
	// Obstacles are inflated by half-width plus spacing; but clearance
	// zones that contain the pin center or a candidate endpoint shrink
	// to the raw metal — a stub starting inside a clearance region can
	// only respect the metal itself (pin vicinities are exempt from
	// spacing in exactly this way in production routers).
	var rawObst []shapegrid.Shape
	r.Space.Wiring[z].Query(win, func(sh shapegrid.Shape) bool {
		if sh.Net != int32(ni) {
			rawObst = append(rawObst, sh)
		}
		return true
	})
	// relax=false keeps the full clearance except in a tiny exit window
	// around each kept point; relax=true shrinks whole clearance zones
	// containing a kept point to the raw metal (last resort).
	obstaclesFor := func(relax bool, keep ...geom.Point) []geom.Rect {
		var windows []geom.Rect
		for _, p := range keep {
			windows = append(windows, geom.Rect{
				XMin: p.X - infl - 4, YMin: p.Y - infl - 4,
				XMax: p.X + infl + 4, YMax: p.Y + infl + 4,
			})
		}
		var out []geom.Rect
		for _, sh := range rawObst {
			inflated := sh.Rect.Expanded(infl)
			shrink := false
			for _, p := range keep {
				if inflated.ContainsClosed(p) {
					shrink = true
					break
				}
			}
			if !shrink {
				out = append(out, inflated)
				continue
			}
			hard := sh.Rect.Expanded(1)
			inside := false
			for _, p := range keep {
				if hard.ContainsClosed(p) {
					inside = true
					break
				}
			}
			if inside {
				continue // start on the metal itself: placement issue
			}
			if relax {
				out = append(out, sh.Rect)
			} else {
				out = append(out, sh.Rect)
				out = append(out, geom.SubtractRects(inflated, windows)...)
			}
		}
		return out
	}
	inFree := func(p geom.Point, obst []geom.Rect) bool {
		for _, o := range obst {
			if o.ContainsClosed(p) {
				return false
			}
		}
		return true
	}
	// verified checks a candidate stub against the rule checker — the
	// authoritative legality test (conflicts with the pin's own net are
	// exempt by construction of SegmentNeed).
	wtStd := r.Chip.WireTypes[0]
	verified := func(cand []geom.Point) bool {
		for i := 1; i < len(cand); i++ {
			if cand[i-1] == cand[i] {
				continue
			}
			if r.Space.SegmentNeed(z, cand[i-1], cand[i], wtStd, int32(ni)) != 0 {
				return false
			}
		}
		return true
	}

	var pts []geom.Point
	if ctr == end {
		pts = []geom.Point{ctr}
	}
	// Obstacle-aware τ-feasible search, trying alternate endpoints: first
	// with full clearance (plus pin exit windows), then with relaxed
	// clearance around the pin. The first rule-checker-verified stub
	// wins; an unverified one is kept only as last resort (the rare §5.2
	// exceptions).
	var fallback []geom.Point
	fallbackEnd := end
	if pts == nil {
	searchLoop:
		for _, relax := range []bool{false, true} {
			for _, e := range ends {
				obst := obstaclesFor(relax, ctr, e)
				if !inFree(ctr, obst) || !inFree(e, obst) {
					continue
				}
				w := geom.R(ctr.X, ctr.Y, e.X, e.Y).Expanded(6 * tau).Intersection(r.Chip.Area)
				got, _, ok := blockgrid.Search(obst, ctr, e, tau, w)
				if !ok {
					continue
				}
				if verified(got) {
					pts = got
					end = e
					break searchLoop
				}
				if fallback == nil {
					fallback = got
					fallbackEnd = e
				}
			}
		}
	}
	if pts == nil && fallback != nil {
		pts = fallback
		end = fallbackEnd
	}
	if pts == nil {
		// Obstacle-blind fallback.
		if got, _, ok := blockgridSearch(ctr, end, tau, r.Chip.Area); ok {
			pts = got
		} else {
			pts = []geom.Point{ctr, geom.Pt(end.X, ctr.Y), end}
		}
	}
	_ = wt0
	length := 0
	for i := 1; i < len(pts); i++ {
		length += pts[i-1].Dist1(pts[i])
	}
	ap := &pinaccess.AccessPath{
		Pin: p.ProtoPin, Layer: z, Points: pts, End: end, Length: length,
	}
	wt := r.Chip.WireTypes[0]
	net := int32(ni)
	for i := 1; i < len(pts); i++ {
		if pts[i-1] == pts[i] {
			continue
		}
		sh := r.Space.AddWire(z, pts[i-1], pts[i], wt, net, shapegrid.RipupReserved)
		r.FG.OnShapeAdded(z, sh)
	}
	r.routes[ni].access[k] = pinaccess.Ref{Path: ap}
	atomic.AddInt64(&r.dynAccess, 1)
}

// SetGlobalCorridors supplies the global routing solution: per net, the
// tree edges in g. Passing nil for a net disables its corridor.
func (r *Router) SetGlobalCorridors(g *grid.Graph, trees [][]int32) {
	r.ggraph = g
	r.corridors = trees
}

// prepareAccess builds pin-access catalogues per circuit class (§4.3) and
// reserves the conflict-free primary paths in the routing space.
func (r *Router) prepareAccess() {
	c := r.Chip
	pitch := c.Deck.Layers[0].Pitch
	cats := map[string]*pinaccess.Catalogue{}
	catCell := map[string]int{}
	if ac := r.opt.AccessCache; ac != nil {
		// Seed from a previous router's catalogues (ECO reuse). Safe:
		// every catalogue path is re-verified against the current space
		// and track graph below before being reserved, so a stale path
		// only falls back to alternates or dynamic access.
		for key, cat := range ac.cats {
			cats[key] = cat
			catCell[key] = ac.cells[key]
			r.accessStats.CataloguesReused++
		}
	}
	catStart := time.Now()
	for ci := range c.Cells {
		key := pinaccess.ClassKey(c, ci, pitch)
		if _, ok := cats[key]; !ok {
			cat := pinaccess.BuildCatalogue(c, r.TG, ci, pinaccess.Params{
				Radius: accessRadiusPitches * pitch,
			})
			cats[key] = cat
			catCell[key] = ci
			r.accessStats.Catalogues++
			r.accessStats.BBNodes += cat.BBNodes
		}
	}
	r.accessStats.CatalogueTime = time.Since(catStart)
	r.accessCache = &AccessCache{cats: cats, cells: catCell}

	usableFor := func(net int32, a pinaccess.Ref) bool {
		end := a.End()
		return r.TG.IsVertex(geom.Pt3(end.X, end.Y, a.Layer())) &&
			r.accessClean(a, net) &&
			r.continuationOK(a.Layer(), end, net)
	}
	for pi := range c.Pins {
		p := &c.Pins[pi]
		if hint := r.opt.AccessHints; hint != nil {
			if ap := hint(pi); ap != nil && usableFor(int32(p.Net), pinaccess.Ref{Path: ap}) {
				cp := *ap
				r.reserveAccess(pi, pinaccess.Ref{Path: &cp})
				r.accessStats.Hinted++
				continue
			}
		}
		if p.Cell < 0 {
			continue
		}
		key := pinaccess.ClassKey(c, p.Cell, pitch)
		cat := cats[key]
		chosen := -1
		if cat != nil && p.ProtoPin < len(cat.Chosen) {
			chosen = cat.Chosen[p.ProtoPin]
			if r.opt.GreedyAccess && len(cat.PerPin[p.ProtoPin]) > 0 {
				chosen = 0 // the greedy trap of Fig. 7
			}
		}
		if chosen < 0 {
			continue
		}
		off := c.Cells[p.Cell].Origin.Sub(c.Cells[catCell[key]].Origin)
		ap := pinaccess.Ref{Path: &cat.PerPin[p.ProtoPin][chosen], Off: off}

		// Verify against current routing space (diff-net, §4.3), demand a
		// feasible on-track continuation at the endpoint, and try
		// alternates when either fails.
		// The translated endpoint must land on an actual track vertex:
		// optimized track coordinates are not translation-invariant, so
		// instances whose surroundings differ from the representative's
		// (the paper folds track coordinates into its equivalence
		// classes) fall back to alternates or dynamic access.
		usable := func(a pinaccess.Ref) bool { return usableFor(int32(p.Net), a) }
		if !usable(ap) {
			ok := false
			for ci := range cat.PerPin[p.ProtoPin] {
				alt := pinaccess.Ref{Path: &cat.PerPin[p.ProtoPin][ci], Off: off}
				if usable(alt) {
					ap = alt
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		}
		r.reserveAccess(pi, ap)
	}
}

// accessClean checks an access path against the routing space for the
// given net.
func (r *Router) accessClean(ap pinaccess.Ref, net int32) bool {
	wt := r.Chip.WireTypes[0]
	z := ap.Layer()
	for i := 1; i < ap.NumPoints(); i++ {
		if r.Space.SegmentNeed(z, ap.Point(i-1), ap.Point(i), wt, net) != 0 {
			return false
		}
	}
	return true
}

// reserveAccess inserts the access path metal as a reservation.
func (r *Router) reserveAccess(pi int, ap pinaccess.Ref) {
	p := &r.Chip.Pins[pi]
	net := int32(p.Net)
	wt := r.Chip.WireTypes[0]
	z := ap.Layer()
	for i := 1; i < ap.NumPoints(); i++ {
		a, b := ap.Point(i-1), ap.Point(i)
		if a == b {
			// Degenerate zero-length stub pieces are never added —
			// matching dynamicAccess and refreshAccess, whose removal
			// loops skip them (an added-but-never-removed piece would
			// leak into the space).
			continue
		}
		sh := r.Space.AddWire(z, a, b, wt, net, shapegrid.RipupReserved)
		r.FG.OnShapeAdded(z, sh)
	}
	// Find this pin's slot within the net.
	n := &r.Chip.Nets[p.Net]
	for k, qi := range n.Pins {
		if qi == pi {
			r.routes[p.Net].access[k] = ap
			r.accessStats.Reserved++
			break
		}
	}
}

// continuationOK reports whether an on-track wire of the net's type can
// start at vertex pt of layer z — the §4.3 "feasible on-track
// continuation" criterion for access endpoints.
func (r *Router) continuationOK(z int, pt geom.Point, net int32) bool {
	wt := r.Chip.WireTypes[0]
	m := wt.Oriented(z, r.Chip.Dir(z), r.Chip.Dir(z))
	return r.Space.RectNeed(z, m.Shape.Translated(pt), m.Class, net) == 0
}

// vertexCandidatesNear lists track-graph vertices of layer z near pt,
// closest first.
func (r *Router) vertexCandidatesNear(z int, pt geom.Point, radius int) []geom.Point {
	l := &r.TG.Layers[z]
	var out []geom.Point
	ortho := pt.Coord(l.Dir.Perp())
	along := pt.Coord(l.Dir)
	for _, tc := range l.TracksRange(ortho-radius, ortho+radius) {
		for _, cc := range l.CrossRange(along-radius, along+radius) {
			if l.Dir == geom.Horizontal {
				out = append(out, geom.Pt(cc, tc))
			} else {
				out = append(out, geom.Pt(tc, cc))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return pt.Dist1(out[i]) < pt.Dist1(out[j]) })
	return out
}

// blockgridSearch adapts the blockage-grid τ-feasible search for dynamic
// access (no obstacles: the stub is short and verified by audits).
func blockgridSearch(from, to geom.Point, tau int, bounds geom.Rect) ([]geom.Point, int, bool) {
	win := geom.R(from.X, from.Y, to.X, to.Y).Expanded(4 * tau).Intersection(bounds)
	return blockgrid.Search(nil, from, to, tau, win)
}

// wireTypeOf returns a net's wire type.
func (r *Router) wireTypeOf(ni int) *rules.WireType {
	return r.Chip.WireTypes[r.Chip.Nets[ni].WireType]
}

// ripupLevelOf returns the ripup level for a net's wiring.
func (r *Router) ripupLevelOf(ni int) uint8 {
	if r.Chip.Nets[ni].Critical {
		return shapegrid.RipupCritical
	}
	return shapegrid.RipupStandard
}

// Stats of the routed net (after Route).
func (r *Router) NetStats(ni int) NetStats {
	rt := &r.routes[ni]
	return NetStats{Routed: rt.routed, Length: rt.length, Vias: len(rt.vias)}
}

// Segments returns a copy of a net's routed segments (for inspection).
func (r *Router) Segments(ni int) []Segment {
	return append([]Segment(nil), r.routes[ni].segments...)
}

// FastGridHitRate exposes the §3.6 statistic.
func (r *Router) FastGridHitRate() float64 { return r.FG.HitRate() }

// ShapeRec is one committed shape of a net together with the plane it
// lives on: Cut=false means wiring plane Plane (a layer), Cut=true
// means cut plane Plane (a via layer).
type ShapeRec struct {
	Plane int
	Cut   bool
	Shape shapegrid.Shape
}

// CommittedShapes reconstructs every shape net ni currently owns in the
// routing space — access-path reservations, routed segment metal, via
// pads/cuts/projections, and notch patches — from the router's own
// bookkeeping, without consulting the shape grids. Verification
// compares this list against the grids' actual contents; any mismatch
// means the incremental bookkeeping and the space have diverged.
func (r *Router) CommittedShapes(ni int) []ShapeRec {
	rt := &r.routes[ni]
	net := int32(ni)
	var out []ShapeRec
	wt0 := r.Chip.WireTypes[0]
	for _, ap := range rt.access {
		if !ap.Valid() {
			continue
		}
		z := ap.Layer()
		for i := 1; i < ap.NumPoints(); i++ {
			a, b := ap.Point(i-1), ap.Point(i)
			if a == b {
				continue
			}
			out = append(out, ShapeRec{Plane: z,
				Shape: r.Space.WireShape(z, a, b, wt0, net, shapegrid.RipupReserved)})
		}
	}
	wt := r.wireTypeOf(ni)
	level := r.ripupLevelOf(ni)
	for _, s := range rt.segments {
		out = append(out, ShapeRec{Plane: s.Z,
			Shape: r.Space.WireShape(s.Z, s.A, s.B, wt, net, level)})
	}
	for _, v := range rt.vias {
		bot, top, cut, proj := r.Space.ViaShapes(v.V, v.At, wt, net, level)
		out = append(out,
			ShapeRec{Plane: v.V, Shape: bot},
			ShapeRec{Plane: v.V + 1, Shape: top},
			ShapeRec{Plane: v.V, Cut: true, Shape: cut})
		if proj != nil {
			out = append(out, ShapeRec{Plane: v.V + 1, Cut: true, Shape: *proj})
		}
	}
	for _, p := range rt.patches {
		out = append(out, ShapeRec{Plane: p.z, Shape: p.sh})
	}
	return out
}

// refreshAccess re-generates the access paths of pins whose on-track
// endpoints are no longer usable (walled in by later wiring). Restricted
// workers call this only for nets whose extent is victimMargin inside
// their region (see worker), so the stub removal and regeneration stay
// owned.
func (r *Router) refreshAccess(ni int) {
	rt := &r.routes[ni]
	net := int32(ni)
	wt := r.Chip.WireTypes[0]
	for k, ap := range rt.access {
		if !ap.Valid() {
			continue
		}
		z := ap.Layer()
		if r.continuationOK(z, ap.End(), net) {
			continue
		}
		// Remove the stub metal and synthesize a fresh path.
		for i := 1; i < ap.NumPoints(); i++ {
			a, b := ap.Point(i-1), ap.Point(i)
			if a == b {
				continue
			}
			if r.Space.RemoveWire(z, a, b, wt, net, shapegrid.RipupReserved) {
				m := wt.Oriented(z, segDirPts(a, b), r.Chip.Dir(z))
				r.FG.OnWiringChange(z, m.Metal(a, b))
			}
		}
		rt.access[k] = pinaccess.Ref{}
		r.dynamicAccess(ni, k)
	}
}

func segDirPts(a, b geom.Point) geom.Direction {
	if a.X == b.X && a.Y != b.Y {
		return geom.Vertical
	}
	return geom.Horizontal
}

// Unroute removes all committed wiring of a net.
func (r *Router) Unroute(ni int) { r.unrouteNet(ni) }

// AccessPath exposes a pin's reserved access path (inspection/tests).
// Shared catalogue paths are materialized into the pin's frame.
func (r *Router) AccessPath(ni, k int) *pinaccess.AccessPath {
	ref := r.routes[ni].access[k]
	if !ref.Valid() {
		return nil
	}
	return ref.Materialize()
}
