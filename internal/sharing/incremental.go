// Incremental (ECO) global routing: instead of re-running the full
// min-max resource sharing solve when a scenario delta dirties a few
// nets, RouteRestricted re-prices only the edges those nets can touch.
// Surviving nets keep their trees (their loads enter as a fixed base),
// and each dirty net gets an overflow-penalized shortest Steiner tree
// against that base — the same repair pricing §2.4 uses for the last
// few nets of the from-scratch flow, which is exactly the regime an ECO
// delta puts us in.

package sharing

import (
	"bonnroute/internal/grid"
	"bonnroute/internal/steiner"
)

// RestrictedResult is the outcome of an incremental global solve.
type RestrictedResult struct {
	// Trees[i] is the tree of nets[i] as grid-edge indices (nil when no
	// feasible tree exists).
	Trees [][]int32
	// RepricedEdges counts the distinct edges whose load this call
	// changed — the "how little did we touch" certificate.
	RepricedEdges int
	// OracleCalls counts Steiner oracle invocations (includes repair).
	OracleCalls int
	// Overflow is the total capacity overflow left on the combined
	// base+new loads.
	Overflow float64
}

// RouteRestricted routes only the nets listed in nets (indices into
// specs) against the fixed base loads of every other net. Nets are
// priced serially in ascending index order and each sees the loads of
// the ones before it, so the result is deterministic regardless of how
// the caller parallelizes everything else. base is not modified.
//
// A short repair loop then re-routes any of the new trees that sit on
// an overflowed edge, again with the §2.4 overflow penalty, stopping
// as soon as a pass fixes nothing.
func RouteRestricted(g *grid.Graph, specs []NetSpec, base []float64, nets []int) RestrictedResult {
	E := g.NumEdges()
	load := make([]float64, E)
	copy(load, base)
	oracle := steiner.NewOracle(g)
	res := RestrictedResult{Trees: make([][]int32, len(nets))}
	touched := make(map[int32]struct{})

	cost := func(width float64) func(e int) float64 {
		return func(e int) float64 {
			cap := g.Cap[e]
			if cap <= 0 || width > cap {
				return -1
			}
			c := float64(g.EdgeLength(e)) + 1
			if load[e]+width > cap {
				c += 1e6 * (load[e] + width - cap)
			}
			return c
		}
	}
	apply := func(tree []int32, width, sign float64) {
		for _, e := range tree {
			load[e] += sign * width
			touched[e] = struct{}{}
		}
	}
	route := func(i int) {
		n := &specs[nets[i]]
		res.OracleCalls++
		edges, ok := oracle.Tree(cost(n.Width), n.Terminals)
		if !ok {
			res.Trees[i] = nil
			return
		}
		tree := make([]int32, len(edges))
		for k, e := range edges {
			tree[k] = int32(e)
		}
		res.Trees[i] = tree
		apply(tree, n.Width, +1)
	}

	for i := range nets {
		route(i)
	}

	// Repair: re-route new trees that landed on overflowed edges. The
	// loop observes only its own trees — base loads are someone else's
	// committed wiring and stay fixed.
	overflowed := func() map[int32]bool {
		m := map[int32]bool{}
		for e := 0; e < E; e++ {
			if g.Cap[e] > 0 && load[e] > g.Cap[e]+1e-9 {
				m[int32(e)] = true
			}
		}
		return m
	}
	for pass := 0; pass < 3; pass++ {
		bad := overflowed()
		if len(bad) == 0 {
			break
		}
		fixed := false
		for i := range nets {
			tree := res.Trees[i]
			if tree == nil {
				continue
			}
			hit := false
			for _, e := range tree {
				if bad[e] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			n := &specs[nets[i]]
			apply(tree, n.Width, -1)
			res.OracleCalls++
			edges, ok := oracle.Tree(cost(n.Width), n.Terminals)
			if !ok {
				apply(tree, n.Width, +1)
				continue
			}
			nt := make([]int32, len(edges))
			for k, e := range edges {
				nt[k] = int32(e)
			}
			res.Trees[i] = nt
			apply(nt, n.Width, +1)
			fixed = true
		}
		if !fixed {
			break
		}
	}

	for e := range touched {
		if load[e] != base[e] {
			res.RepricedEdges++
		}
	}
	for e := 0; e < E; e++ {
		if g.Cap[e] > 0 && load[e] > g.Cap[e] {
			res.Overflow += load[e] - g.Cap[e]
		}
	}
	return res
}
