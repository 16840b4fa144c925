package steiner

import (
	"fmt"
	"math/rand"

	"bonnroute/internal/geom"
	"bonnroute/internal/grid"
)

// This file is the differential harness for the exact oracle: an
// independent reference solver plus a seeded random-instance checker.

// ReferenceTreeCost computes the optimal Steiner tree cost by the plain
// Erickson–Monma–Veinott label algorithm: the same (vertex, subset)
// recurrence as Exact but with no future cost, no pruning, no
// truncation and freshly allocated dense state — deliberately sharing
// none of the production oracle's machinery, so the two only agree when
// both are right. Exponential in terminals and dense in |V|·2^k memory;
// test-sized instances only.
func ReferenceTreeCost(g *grid.Graph, cost func(e int) float64, terminals [][]int) (float64, bool) {
	// Merge terminal groups that share a vertex (independent of
	// Oracle.mergeTerminals).
	comp := make(map[int]int)
	par := make([]int, len(terminals))
	for i := range par {
		par[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		for par[x] != x {
			par[x] = par[par[x]]
			x = par[x]
		}
		return x
	}
	for ti, vs := range terminals {
		for _, v := range vs {
			if c, seen := comp[v]; seen {
				par[find(ti)] = find(c)
			} else {
				comp[v] = ti
			}
		}
	}
	dense := make(map[int]int)
	var merged [][]int
	for ti, vs := range terminals {
		r := find(ti)
		id, seen := dense[r]
		if !seen {
			id = len(merged)
			dense[r] = id
			merged = append(merged, nil)
		}
		merged[id] = append(merged[id], vs...)
	}
	k := len(merged)
	if k <= 1 {
		return 0, true
	}
	n := g.NumVertices()
	// Contracted-graph semantics: each merged group is a zero-cost
	// clique, so labels teleport between group members for free.
	compAt := make([]int, n)
	for v := range compAt {
		compAt[v] = -1
	}
	for ci, vs := range merged {
		for _, v := range vs {
			compAt[v] = ci
		}
	}
	full := 1<<(k-1) - 1
	dist := make([][]float64, full+1)
	done := make([][]bool, full+1)
	for I := 1; I <= full; I++ {
		dist[I] = make([]float64, n)
		for v := range dist[I] {
			dist[I][v] = inf64
		}
		done[I] = make([]bool, n)
	}
	var hq exHeap
	for j := 1; j < k; j++ {
		I := 1 << (j - 1)
		for _, v := range merged[j] {
			if dist[I][v] != 0 {
				dist[I][v] = 0
				hq.push(exItem{0, 0, int32(v), uint16(I)})
			}
		}
	}
	for {
		it, nonempty := hq.pop()
		if !nonempty {
			break
		}
		I, v := int(it.sub), int(it.v)
		if done[I][v] || it.l > dist[I][v] {
			continue
		}
		done[I][v] = true
		if I == full && compAt[v] == 0 {
			return it.l, true
		}
		for J := 1; J <= full; J++ {
			if J&I != 0 || !done[J][v] {
				continue
			}
			S := I | J
			if l2 := it.l + dist[J][v]; !done[S][v] && l2 < dist[S][v] {
				dist[S][v] = l2
				hq.push(exItem{l2, l2, int32(v), uint16(S)})
			}
		}
		relax := func(w int, l2 float64) {
			if !done[I][w] && l2 < dist[I][w] {
				dist[I][w] = l2
				hq.push(exItem{l2, l2, int32(w), uint16(I)})
			}
		}
		if c := compAt[v]; c >= 0 {
			for _, w := range merged[c] {
				relax(w, it.l)
			}
		}
		g.Neighbors(v, func(e, w int) {
			if c := cost(e); c >= 0 {
				relax(w, it.l+c)
			}
		})
	}
	return 0, false
}

// TreeCost sums cost over edges (negative costs are a caller bug —
// trees never contain unusable edges).
func TreeCost(cost func(e int) float64, edges []int) float64 {
	var s float64
	for _, e := range edges {
		s += cost(e)
	}
	return s
}

// DiffInstance is one randomly generated differential instance.
type DiffInstance struct {
	G         *grid.Graph
	Cost      func(e int) float64
	Terminals [][]int
}

// GenDiffInstance builds a random small instance from rng: a 2–3 layer
// grid, per-edge costs jittered around geometry (with a small chance of
// blocked edges), and 2–9 single-vertex terminal groups (occasionally
// multi-vertex, occasionally duplicated across groups to exercise the
// merge path).
func GenDiffInstance(rng *rand.Rand) DiffInstance {
	nx := 3 + rng.Intn(5)
	ny := 3 + rng.Intn(5)
	dirs := []geom.Direction{geom.Horizontal, geom.Vertical}
	if rng.Intn(2) == 0 {
		dirs = append(dirs, geom.Horizontal)
	}
	g := grid.New(geom.R(0, 0, nx*100, ny*100), 100, 100, dirs)

	costs := make([]float64, g.NumEdges())
	for e := range costs {
		base := 1.0
		if !g.IsVia(e) {
			base = float64(g.EdgeLength(e))
		}
		costs[e] = base * (0.5 + rng.Float64())
		if rng.Intn(40) == 0 {
			costs[e] = -1 // blocked
		}
	}
	cost := func(e int) float64 { return costs[e] }

	k := 2 + rng.Intn(8)
	terms := make([][]int, k)
	for i := range terms {
		v := g.Vertex(rng.Intn(nx), rng.Intn(ny), rng.Intn(g.NZ))
		terms[i] = []int{v}
		if rng.Intn(6) == 0 {
			terms[i] = append(terms[i], g.Vertex(rng.Intn(nx), rng.Intn(ny), rng.Intn(g.NZ)))
		}
	}
	return DiffInstance{G: g, Cost: cost, Terminals: terms}
}

// CheckDifferential runs one instance through the exact oracle, Path
// Composition and the reference solver and cross-checks every contract:
// exact == reference optimum, exact ≤ Path Composition, both trees
// valid. Returns a descriptive error on the first violation.
func CheckDifferential(inst DiffInstance, ex *Exact) error {
	if ex == nil {
		ex = NewExact(inst.G, 0)
	}
	pcEdges, pcOK := PathComposition(inst.G, inst.Cost, inst.Terminals)
	edges, isExact, ok := ex.Tree(inst.Cost, inst.Terminals)
	if ok != pcOK {
		return fmt.Errorf("feasibility disagrees: exact ok=%v, path composition ok=%v", ok, pcOK)
	}
	refCost, refOK := ReferenceTreeCost(inst.G, inst.Cost, inst.Terminals)
	if refOK != ok {
		return fmt.Errorf("feasibility disagrees: exact ok=%v, reference ok=%v", ok, refOK)
	}
	if !ok {
		return nil
	}
	if !ValidateTree(inst.G, edges, inst.Terminals) {
		return fmt.Errorf("exact oracle tree does not span the terminals")
	}
	exCost := TreeCost(inst.Cost, edges)
	pcCost := TreeCost(inst.Cost, pcEdges)
	const eps = 1e-6
	if exCost > pcCost+eps {
		return fmt.Errorf("exact tree costs %.9f > path composition %.9f", exCost, pcCost)
	}
	if !isExact {
		return fmt.Errorf("oracle declined exactness on a %d-terminal instance", len(inst.Terminals))
	}
	if exCost > refCost+eps || exCost < refCost-eps {
		return fmt.Errorf("exact tree costs %.9f, reference optimum %.9f", exCost, refCost)
	}
	return nil
}

// RunDifferential checks n seeded instances (deterministic per seed) and
// returns the first failure, wrapped with its instance index.
func RunDifferential(seed int64, n int) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		inst := GenDiffInstance(rng)
		if err := CheckDifferential(inst, nil); err != nil {
			return fmt.Errorf("differential instance %d (seed %d): %w", i, seed, err)
		}
	}
	return nil
}
