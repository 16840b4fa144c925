package pathsearch

import (
	"bonnroute/internal/geom"
)

// FutureCost is the potential function π of the goal-directed search: a
// lower bound on the cost from a vertex to the target set, with π ≡ 0 on
// targets. It must be feasible (reduced costs nonnegative), which HFuture
// guarantees, and 1-Lipschitz along tracks with respect to
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
