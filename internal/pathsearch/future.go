package pathsearch

import (
	"bonnroute/internal/geom"
)

// FutureCost is the potential function π of the goal-directed search: a
// lower bound on the cost from a vertex to the target set, with π ≡ 0 on
// targets. It must be feasible (reduced costs nonnegative), which both
// implementations guarantee, and 1-Lipschitz along tracks with respect to
// wire cost, which the interval search exploits.
type FutureCost interface {
	At(x, y, z int) int
}

// Costs bundles the edge cost parameters of the track graph (paper
// §4.1): wire cost is ℓ1 length, jogs are scaled by BetaJog per unit, and
// a via between layers z and z+1 costs GammaVia[z].
type Costs struct {
	// BetaJog[z] ≥ 1 is the non-preferred-direction penalty multiplier.
	BetaJog []int
	// GammaVia[v] > 0 is the via cost between wiring layers v and v+1.
	GammaVia []int
}

// UniformCosts builds the usual parameterization: β on every layer, γ per
// via layer.
func UniformCosts(numLayers, beta, gamma int) Costs {
	c := Costs{BetaJog: make([]int, numLayers), GammaVia: make([]int, numLayers-1)}
	for z := range c.BetaJog {
		c.BetaJog[z] = beta
	}
	for v := range c.GammaVia {
		c.GammaVia[v] = gamma
	}
	return c
}

// viaLB computes, per layer, the cheapest via cost to reach any layer
// marked in targetLayers (the lb_via term of π_H, Hetzel 1998).
// targetLayers is indexed by layer; entries beyond its length read false,
// so callers can pass a pooled buffer sized to numLayers.
func viaLB(numLayers int, gamma []int, targetLayers []bool) []int {
	const inf = int(^uint(0) >> 2)
	lb := make([]int, numLayers)
	for z := range lb {
		if z >= len(targetLayers) || !targetLayers[z] {
			lb[z] = inf
		}
	}
	// Two relaxation sweeps (up then down) suffice on a path graph.
	for z := 1; z < numLayers; z++ {
		if lb[z-1]+gamma[z-1] < lb[z] {
			lb[z] = lb[z-1] + gamma[z-1]
		}
	}
	for z := numLayers - 2; z >= 0; z-- {
		if lb[z+1]+gamma[z] < lb[z] {
			lb[z] = lb[z+1] + gamma[z]
		}
	}
	return lb
}

// HFuture is π_H (paper §4.1): lb_wire(x, y) + lb_via(z), where lb_wire
// is the ℓ1 distance to the target rectangles projected to one plane and
// lb_via the minimum via cost to a target layer. Simple and fast; its
// weakness is blindness to blockages.
type HFuture struct {
	rects []geom.Rect
	viaLB []int
}

// NewHFuture builds π_H from the target vertex rectangles. targets maps
// layer → covering rectangles of the target vertices on that layer.
func NewHFuture(numLayers int, costs Costs, targets map[int][]geom.Rect) *HFuture {
	f := &HFuture{}
	tl := make([]bool, numLayers)
	for z, rs := range targets {
		if z >= 0 && z < numLayers {
			tl[z] = true
		}
		f.rects = append(f.rects, rs...)
	}
	f.viaLB = viaLB(numLayers, costs.GammaVia, tl)
	return f
}

// At returns π_H(x, y, z).
func (f *HFuture) At(x, y, z int) int {
	best := int(^uint(0) >> 2)
	p := geom.Pt(x, y)
	for _, r := range f.rects {
		if d := r.Dist1Pt(p); d < best {
			best = d
		}
	}
	if best == int(^uint(0)>>2) {
		return 0
	}
	return best + f.viaLB[z]
}

// futureCache holds the engine's reusable future-cost machinery: the
// last-built HFuture (reused verbatim across rip-up retries of the same
// net, whose target set is unchanged), a memo of via-lower-bound vectors
// keyed by target-layer bitmask (shared across nets whose targets touch
// the same layers, valid while GammaVia is unchanged), and a pooled
// target-layer scratch buffer.
type futureCache struct {
	gamma   []int
	nl      int
	viaLBs  map[uint64][]int
	lastNet int32
	lastNL  int
	lastPts []geom.Point3
	lastPi  *HFuture
	tl      []bool // pooled target-layer mask handed to viaLB
}

// HFutureFor returns π_H for the given target points, identified by net.
// Identical consecutive requests (same net, layer count, costs, and
// points) return the cached structure; the per-layer via lower bound is
// memoized across nets by target-layer set. Cache hits are counted in
// Stats.PiReused.
func (e *Engine) HFutureFor(net int32, numLayers int, costs Costs, pts []geom.Point3) *HFuture {
	fc := &e.fc
	if fc.nl != numLayers || !intsEqual(fc.gamma, costs.GammaVia) {
		fc.gamma = append(fc.gamma[:0], costs.GammaVia...)
		fc.nl = numLayers
		fc.viaLBs = nil
		fc.lastPi = nil
	}
	if fc.lastPi != nil && fc.lastNet == net && fc.lastNL == numLayers && pts3Equal(fc.lastPts, pts) {
		e.total.PiReused++
		return fc.lastPi
	}

	// Targets are 1-unit rects around each point — the same geometry the
	// map-based NewHFuture path produces, so cached and uncached π agree.
	f := &HFuture{rects: make([]geom.Rect, 0, len(pts))}
	var mask uint64
	maskable := true
	for _, p := range pts {
		f.rects = append(f.rects, geom.Rect{XMin: p.X, YMin: p.Y, XMax: p.X + 1, YMax: p.Y + 1})
		if p.Z >= 0 && p.Z < 64 {
			mask |= 1 << uint(p.Z)
		} else {
			maskable = false
		}
	}
	if maskable {
		if lb, ok := fc.viaLBs[mask]; ok {
			f.viaLB = lb
			e.total.PiReused++
		} else {
			f.viaLB = viaLB(numLayers, costs.GammaVia, fc.targetLayers(numLayers, pts))
			if fc.viaLBs == nil {
				fc.viaLBs = map[uint64][]int{}
			}
			fc.viaLBs[mask] = f.viaLB
		}
	} else {
		f.viaLB = viaLB(numLayers, costs.GammaVia, fc.targetLayers(numLayers, pts))
	}

	fc.lastNet = net
	fc.lastNL = numLayers
	fc.lastPts = append(fc.lastPts[:0], pts...)
	fc.lastPi = f
	return f
}

// targetLayers fills the cache's pooled layer mask from the target
// points, replacing the per-call map the viaLB path used to allocate.
func (fc *futureCache) targetLayers(numLayers int, pts []geom.Point3) []bool {
	if cap(fc.tl) < numLayers {
		fc.tl = make([]bool, numLayers)
	}
	fc.tl = fc.tl[:numLayers]
	for i := range fc.tl {
		fc.tl[i] = false
	}
	for _, p := range pts {
		if p.Z >= 0 && p.Z < numLayers {
			fc.tl[p.Z] = true
		}
	}
	return fc.tl
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pts3Equal(a, b []geom.Point3) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PFuture is the blockage-aware future cost π_P (Peyer et al. 2009,
// paper §4.1): exact backward Dijkstra distances on a coarsened grid
// that keeps large blockages, lower-bounded against π_H so it is never
// weaker. It costs more to set up, so the router uses it only for
// connections whose global route already contains a large detour.
type PFuture struct {
	h      *HFuture
	bounds geom.Rect
	cell   int
	nx, ny int
	layers int
	dist   []int32 // [z][cy][cx] flattened, -1 = unreached
}

// PFutureConfig parameterizes the coarse grid.
type PFutureConfig struct {
	// Cell is the coarse cell edge length.
	Cell int
	// Blocked reports whether the coarse cell (rect on layer z) is
	// impassable. Only report true when the cell is genuinely fully
	// blocked, otherwise the bound becomes inadmissible.
	Blocked func(z int, cellRect geom.Rect) bool
}

// NewPFuture builds π_P over bounds with the given coarse cell size.
func NewPFuture(numLayers int, costs Costs, targets map[int][]geom.Rect,
	bounds geom.Rect, cfg PFutureConfig) *PFuture {
	h := NewHFuture(numLayers, costs, targets)
	cell := cfg.Cell
	if cell <= 0 {
		cell = 1 + max(bounds.W(), bounds.H())/64
	}
	nx := (bounds.W() + cell - 1) / cell
	ny := (bounds.H() + cell - 1) / cell
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	p := &PFuture{h: h, bounds: bounds, cell: cell, nx: nx, ny: ny, layers: numLayers}
	n := numLayers * nx * ny
	p.dist = make([]int32, n)
	for i := range p.dist {
		p.dist[i] = -1
	}
	blocked := make([]bool, n)
	if cfg.Blocked != nil {
		for z := 0; z < numLayers; z++ {
			for cy := 0; cy < ny; cy++ {
				for cx := 0; cx < nx; cx++ {
					r := p.cellRect(cx, cy)
					blocked[p.idx(cx, cy, z)] = cfg.Blocked(z, r)
				}
			}
		}
	}

	// Multi-source backward Dijkstra from target cells.
	var pq distHeap
	push := func(cx, cy, z int, d int32) {
		if cx < 0 || cx >= nx || cy < 0 || cy >= ny || z < 0 || z >= numLayers {
			return
		}
		i := p.idx(cx, cy, z)
		if blocked[i] {
			return
		}
		if p.dist[i] >= 0 && p.dist[i] <= d {
			return
		}
		p.dist[i] = d
		pq.push(distItem{d: d, node: int32(i)})
	}
	for z, rs := range targets {
		for _, r := range rs {
			c0x, c0y := p.cellOf(r.XMin, r.YMin)
			c1x, c1y := p.cellOf(r.XMax, r.YMax)
			for cy := c0y; cy <= c1y; cy++ {
				for cx := c0x; cx <= c1x; cx++ {
					push(cx, cy, z, 0)
				}
			}
		}
	}
	for {
		it, ok := pq.pop()
		if !ok {
			break
		}
		i := int(it.node)
		if p.dist[i] != it.d {
			continue
		}
		z := i / (nx * ny)
		rem := i % (nx * ny)
		cy, cx := rem/nx, rem%nx
		step := int32(cell)
		push(cx-1, cy, z, it.d+step)
		push(cx+1, cy, z, it.d+step)
		push(cx, cy-1, z, it.d+step)
		push(cx, cy+1, z, it.d+step)
		if z > 0 {
			push(cx, cy, z-1, it.d+int32(costs.GammaVia[z-1]))
		}
		if z+1 < numLayers {
			push(cx, cy, z+1, it.d+int32(costs.GammaVia[z]))
		}
	}
	return p
}

func (p *PFuture) idx(cx, cy, z int) int { return (z*p.ny+cy)*p.nx + cx }

func (p *PFuture) cellOf(x, y int) (int, int) {
	cx := (x - p.bounds.XMin) / p.cell
	cy := (y - p.bounds.YMin) / p.cell
	if cx < 0 {
		cx = 0
	} else if cx >= p.nx {
		cx = p.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= p.ny {
		cy = p.ny - 1
	}
	return cx, cy
}

func (p *PFuture) cellRect(cx, cy int) geom.Rect {
	return geom.Rect{
		XMin: p.bounds.XMin + cx*p.cell,
		YMin: p.bounds.YMin + cy*p.cell,
		XMax: p.bounds.XMin + (cx+1)*p.cell,
		YMax: p.bounds.YMin + (cy+1)*p.cell,
	}
}

// At returns π_P(x, y, z) ≥ π_H(x, y, z). The coarse distance is slacked
// by four cell lengths so it remains an admissible lower bound despite
// grid discretization. Note that cell quantization can still make the
// potential locally infeasible (reduced edge costs can dip slightly
// negative across cell boundaries); the interval search is
// label-correcting, so results stay exact for any admissible bound.
func (p *PFuture) At(x, y, z int) int {
	hb := p.h.At(x, y, z)
	cx, cy := p.cellOf(x, y)
	d := p.dist[p.idx(cx, cy, z)]
	if d < 0 {
		// Unreachable in the coarse model (e.g. inside a blocked cell):
		// fall back to π_H rather than claim infinity.
		return hb
	}
	pb := int(d) - 4*p.cell
	if pb > hb {
		return pb
	}
	return hb
}

// distItem is one coarse-grid Dijkstra queue entry: tentative distance
// plus the flattened node index. Ties break on the node index, so the
// settle order — and with it every dist array — is deterministic.
type distItem struct {
	d    int32
	node int32
}

// distHeap is a plain typed binary min-heap for future-cost construction.
// It replaces the old container/heap cellHeap, whose interface{} boxing
// allocated on every Push/Pop inside NewPFuture.
type distHeap []distItem

func (h distItem) less(o distItem) bool {
	return h.d < o.d || (h.d == o.d && h.node < o.node)
}

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].less(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *distHeap) pop() (distItem, bool) {
	s := *h
	if len(s) == 0 {
		return distItem{}, false
	}
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s[l].less(s[small]) {
			small = l
		}
		if r < n && s[r].less(s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top, true
}
