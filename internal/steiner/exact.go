package steiner

import (
	"math"

	"bonnroute/internal/grid"
)

// DefaultExactMax is the net-degree limit NewExact uses when given 0:
// ≤ 9 terminal groups, the regime where the Dreyfus–Wagner baseline
// (rsmt.go) already certifies optima and where the 2^(k−1) subset
// lattice stays tiny. The router itself answers every net with Path
// Composition; Exact is the tested reference that the benchmark probe
// times beside it (DESIGN.md §13).
const DefaultExactMax = 9

// exactHardCap bounds the degree the exact oracle will ever attempt:
// the subset lattice (and the per-subset state arrays) grows as
// 2^(k−1)·|V|, so past 12 terminals the memory and label volume stop
// paying for the optimality. Higher requests silently fall back to
// Path Composition per call.
const exactHardCap = 12

// Exact is the exact goal-oriented Steiner oracle after "Dijkstra meets
// Steiner" (Hougardy, Silvanus, Vygen): a label-setting Dijkstra over
// (vertex, terminal-subset) states. A label ℓ(v, I) is the cost of a
// cheapest tree spanning {v} ∪ I for a subset I of the non-root
// terminal groups; labels grow by edge relaxation (ℓ(w, I) ≤ ℓ(v, I) +
// c(vw)) and by merging two disjoint settled labels at the same vertex
// (ℓ(v, I ∪ J) ≤ ℓ(v, I) + ℓ(v, J)); the first settled label (r, full)
// at a root-group vertex r is a Steiner minimum tree. The search runs
// on the contracted graph — each terminal group is a zero-cost clique
// (§2.1), so labels jump between group members for free and the result
// may be a grid forest stitched together through a group, matching
// Path Composition's (and ValidateTree's) semantics.
//
// Goal orientation comes from an admissible future cost π(v, I) =
// max over the not-yet-spanned terminal groups t of d(v, t): any
// completion of (v, I) must connect v to every remaining group, so its
// cost is at least each d(v, t). The distances are the priced-graph
// analogue of pathsearch's π_H ℓ1+via bound — on a uniform-cost grid
// they coincide with it, but oracle edge costs are arbitrary resource
// prices, so the bound is computed exactly: one truncated backward
// Dijkstra per terminal group, stopped at the Path Composition upper
// bound U (an unsettled vertex provably has d > U, so U itself is a
// valid — and for pruning purposes perfect — stand-in). Because every
// d(v, t) is an exact distance function, π is consistent, keys
// ℓ + π are monotone along the search, and states settle exactly once.
//
// Every call first runs Path Composition on the same (memoized) costs:
// its tree supplies U for pruning and truncation, and is the fallback
// whenever the exact search declines (degree above the cap, or — float
// paranoia — a dearer result), which is what makes the oracle's
// "never costlier than Path Composition" contract unconditional.
//
// Like Oracle, an Exact is not safe for concurrent use; the parallel
// resource sharing solver gives each worker its own. All state arrays
// are epoch-stamped and pooled across calls, with the same int32
// wraparound hard-clear Oracle uses.
type Exact struct {
	g        *grid.Graph
	pc       *Oracle
	maxTerms int

	cur int32

	// Memoized edge costs for the current call (PC, the backward
	// Dijkstras and the main search all price each edge once).
	costs   []float64
	costVer []int32

	// Truncated backward distances per terminal group: tver == cur
	// marks a touched entry, tdone a settled one (only settled entries
	// are valid lower bounds; everything else reads as the bound U).
	tdist [][]float64
	tver  [][]int32
	tdone [][]bool

	// Per-subset state, allocated lazily on first touch and pooled.
	sub []*exSub

	// Settled subsets per vertex (the merge partners).
	sl    [][]uint16
	slVer []int32

	// Edge dedup stamps for tree reconstruction.
	edgeVer []int32

	hq     exHeap
	outBuf []int
	stk    []exFrame
}

// exSub is the per-subset slice of the (vertex, subset) state space.
type exSub struct {
	dist []float64
	ver  []int32
	done []bool
	// parentEdge ≥ 0 is an edge relaxation (predecessor = the other
	// endpoint, same subset); −1 an initial terminal label; −2 a merge
	// of (v, parentSub) and (v, subset^parentSub); −3 a zero-cost
	// intra-group clique jump from (parentV, subset).
	parentEdge []int32
	parentSub  []uint16
	parentV    []int32
}

func (s *exSub) touch(v int, cur int32) {
	if s.ver[v] != cur {
		s.ver[v] = cur
		s.dist[v] = inf64
		s.done[v] = false
		s.parentEdge[v] = -1
	}
}

type exFrame struct {
	v   int32
	sub uint16
}

// NewExact creates an exact oracle for g handling nets of up to
// maxTerms terminal groups (0 or negative selects DefaultExactMax;
// values above the hard cap are clamped). Calls beyond the limit fall
// back to Path Composition.
func NewExact(g *grid.Graph, maxTerms int) *Exact {
	if maxTerms <= 0 {
		maxTerms = DefaultExactMax
	}
	if maxTerms > exactHardCap {
		maxTerms = exactHardCap
	}
	if maxTerms < 2 {
		maxTerms = 2
	}
	E := g.NumEdges()
	return &Exact{
		g:        g,
		pc:       NewOracle(g),
		maxTerms: maxTerms,
		costs:    make([]float64, E),
		costVer:  make([]int32, E),
		edgeVer:  make([]int32, E),
		sl:       make([][]uint16, g.NumVertices()),
		slVer:    make([]int32, g.NumVertices()),
	}
}

// MaxTerminals reports the configured exact-degree cap.
func (x *Exact) MaxTerminals() int { return x.maxTerms }

// nextEpoch advances the oracle-wide epoch, hard-clearing every stamp
// array on int32 wraparound (see nextEpoch in oracle.go for why the
// clear matters in a long-lived daemon).
func (x *Exact) nextEpoch() {
	if x.cur == math.MaxInt32 {
		clear32 := func(s []int32) {
			for i := range s {
				s[i] = 0
			}
		}
		for _, s := range x.sub {
			if s != nil {
				clear32(s.ver)
			}
		}
		for _, tv := range x.tver {
			clear32(tv)
		}
		clear32(x.slVer)
		clear32(x.costVer)
		clear32(x.edgeVer)
		x.cur = 0
	}
	x.cur++
}

// cost memoizes the caller's edge-cost function for the current call.
func (x *Exact) cost(e int, raw func(int) float64) float64 {
	if x.costVer[e] != x.cur {
		x.costVer[e] = x.cur
		x.costs[e] = raw(e)
	}
	return x.costs[e]
}

func (x *Exact) touchSub(I int) *exSub {
	s := x.sub[I]
	if s == nil {
		n := x.g.NumVertices()
		s = &exSub{
			dist:       make([]float64, n),
			ver:        make([]int32, n),
			done:       make([]bool, n),
			parentEdge: make([]int32, n),
			parentSub:  make([]uint16, n),
			parentV:    make([]int32, n),
		}
		x.sub[I] = s
	}
	return s
}

// groupDist runs one truncated multi-source backward Dijkstra from the
// group's vertex set, settling every vertex with d ≤ bound. Distances
// are in the contracted graph: a terminal group is a zero-cost clique
// (§2.1), so settling any member relaxes all of them for free.
func (x *Exact) groupDist(t int, sources []int, merged [][]int, cost func(int) float64, bound float64) {
	dist, ver, done := x.tdist[t], x.tver[t], x.tdone[t]
	x.hq = x.hq[:0]
	for _, v := range sources {
		if ver[v] != x.cur || dist[v] != 0 {
			ver[v] = x.cur
			dist[v] = 0
			done[v] = false
			x.hq.push(exItem{0, 0, int32(v), 0})
		}
	}
	for {
		it, nonempty := x.hq.pop()
		if !nonempty {
			break
		}
		v := int(it.v)
		if done[v] || it.l > dist[v] {
			continue
		}
		if it.l > bound {
			break
		}
		done[v] = true
		relax := func(w int, nd float64) {
			if ver[w] != x.cur {
				ver[w] = x.cur
				dist[w] = inf64
				done[w] = false
			}
			if done[w] || nd >= dist[w] {
				return
			}
			dist[w] = nd
			x.hq.push(exItem{nd, nd, int32(w), 0})
		}
		if c := x.pc.compOf(v); c >= 0 {
			for _, w := range merged[c] {
				relax(w, it.l)
			}
		}
		x.g.Neighbors(v, func(e, w int) {
			if c := cost(e); c >= 0 {
				relax(w, it.l+c)
			}
		})
	}
}

// lb is the admissible lower bound on d(v, group t): the settled
// backward distance, or the truncation bound for anything farther.
func (x *Exact) lb(t, v int, bound float64) float64 {
	if x.tver[t][v] == x.cur && x.tdone[t][v] {
		return x.tdist[t][v]
	}
	return bound
}

// pi is the future cost of state (v, I): the completion must still
// connect v to the root group and every group whose bit is clear in I.
func (x *Exact) pi(v, I, k int, bound float64) float64 {
	p := x.lb(0, v, bound)
	for j := 1; j < k; j++ {
		if I&(1<<(j-1)) == 0 {
			if d := x.lb(j, v, bound); d > p {
				p = d
			}
		}
	}
	return p
}

// Tree computes a minimum-cost Steiner tree connecting the terminal
// groups under the given edge costs (semantics as Oracle.Tree: groups
// are zero-cost vertex sets, negative cost marks an edge unusable).
// exact reports whether the returned tree is certified optimal; when
// false (degree above the cap, or the guarded float fallback) the tree
// is the Path Composition answer. In either case the result never
// costs more than Path Composition's on the same costs.
func (x *Exact) Tree(rawCost func(e int) float64, terminals [][]int) (edges []int, exact, ok bool) {
	if len(terminals) <= 1 {
		return nil, true, true
	}
	x.nextEpoch()
	cost := func(e int) float64 { return x.cost(e, rawCost) }

	// Path Composition first: upper bound, fallback, and the terminal
	// merge (x.pc.merged / compOf stay valid for the whole call).
	pcEdges, pcOK := x.pc.Tree(cost, terminals)
	if !pcOK {
		return nil, false, false
	}
	merged := x.pc.merged
	k := len(merged)
	if k <= 1 {
		return nil, true, true
	}
	if k > x.maxTerms {
		return pcEdges, false, true
	}

	var ub float64
	for _, e := range pcEdges {
		ub += cost(e)
	}
	// Everything with key beyond the Path Composition cost is pruned:
	// the optimum costs at most ub, and π is admissible, so no label of
	// an optimal decomposition exceeds it. The epsilon absorbs float
	// accumulation differences between the two searches.
	bound := ub + 1e-9 + math.Abs(ub)*1e-12

	// Goal-oriented lower bounds: one truncated backward Dijkstra per
	// terminal group (root included — it steers the endgame).
	for len(x.tdist) < k {
		n := x.g.NumVertices()
		x.tdist = append(x.tdist, make([]float64, n))
		x.tver = append(x.tver, make([]int32, n))
		x.tdone = append(x.tdone, make([]bool, n))
	}
	for t := 0; t < k; t++ {
		x.groupDist(t, merged[t], merged, cost, bound)
	}

	full := 1<<(k-1) - 1
	for len(x.sub) <= full {
		x.sub = append(x.sub, nil)
	}

	// Initial labels: ℓ(v, {j}) = 0 for every vertex of each non-root
	// group j.
	x.hq = x.hq[:0]
	for j := 1; j < k; j++ {
		I := 1 << (j - 1)
		s := x.touchSub(I)
		for _, v := range merged[j] {
			s.touch(v, x.cur)
			if s.dist[v] != 0 {
				s.dist[v] = 0
				x.hq.push(exItem{x.pi(v, I, k, bound), 0, int32(v), uint16(I)})
			}
		}
	}

	goalV := int32(-1)
	var goalCost float64
	for {
		it, nonempty := x.hq.pop()
		if !nonempty {
			break
		}
		I, v := int(it.sub), int(it.v)
		s := x.sub[I]
		if s.ver[v] != x.cur || s.done[v] || it.l > s.dist[v] {
			continue
		}
		s.done[v] = true
		if I == full && x.pc.compOf(v) == 0 {
			goalV, goalCost = it.v, it.l
			break
		}
		// Merge with every disjoint subset already settled at v.
		if x.slVer[v] != x.cur {
			x.slVer[v] = x.cur
			x.sl[v] = x.sl[v][:0]
		}
		for _, J := range x.sl[v] {
			if int(J)&I != 0 {
				continue
			}
			l2 := it.l + x.sub[J].dist[v]
			S := I | int(J)
			ss := x.touchSub(S)
			ss.touch(v, x.cur)
			if ss.done[v] || l2 >= ss.dist[v] {
				continue
			}
			if key := l2 + x.pi(v, S, k, bound); key <= bound {
				ss.dist[v] = l2
				ss.parentEdge[v] = -2
				ss.parentSub[v] = J
				x.hq.push(exItem{key, l2, it.v, uint16(S)})
			}
		}
		x.sl[v] = append(x.sl[v], uint16(I))
		// Zero-cost clique jumps: terminal groups are contracted
		// super-vertices, so a settled label at one member extends to
		// every member for free (this is what lets the tree be a grid
		// forest stitched together through a group, exactly as Path
		// Composition's group absorption allows).
		if c := x.pc.compOf(v); c >= 0 {
			for _, w := range merged[c] {
				s.touch(w, x.cur)
				if s.done[w] || it.l >= s.dist[w] {
					continue
				}
				if key := it.l + x.pi(w, I, k, bound); key <= bound {
					s.dist[w] = it.l
					s.parentEdge[w] = -3
					s.parentV[w] = it.v
					x.hq.push(exItem{key, it.l, int32(w), uint16(I)})
				}
			}
		}
		// Edge relaxations within the same subset.
		x.g.Neighbors(v, func(e, w int) {
			c := cost(e)
			if c < 0 {
				return
			}
			l2 := it.l + c
			s.touch(w, x.cur)
			if s.done[w] || l2 >= s.dist[w] {
				return
			}
			if key := l2 + x.pi(w, I, k, bound); key <= bound {
				s.dist[w] = l2
				s.parentEdge[w] = int32(e)
				x.hq.push(exItem{key, l2, int32(w), uint16(I)})
			}
		})
	}

	// The optimum never exceeds the Path Composition bound, so the goal
	// is always reachable; these fallbacks only guard float pathology.
	if goalV < 0 || goalCost > ub+1e-9 {
		return pcEdges, false, true
	}

	// Reconstruct by unwinding parent records; the edge stamps dedup
	// shared segments (possible only through zero-cost edges, where the
	// dedup can only cheapen the tree).
	out := x.outBuf[:0]
	stack := append(x.stk[:0], exFrame{goalV, uint16(full)})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s := x.sub[f.sub]
		switch pe := s.parentEdge[f.v]; {
		case pe == -1:
			// Initial terminal label.
		case pe == -2:
			J := s.parentSub[f.v]
			stack = append(stack, exFrame{f.v, J}, exFrame{f.v, f.sub ^ J})
		case pe == -3:
			// Clique jump: no grid edge, continue at the source member.
			stack = append(stack, exFrame{s.parentV[f.v], f.sub})
		default:
			e := int(pe)
			if x.edgeVer[e] != x.cur {
				x.edgeVer[e] = x.cur
				out = append(out, e)
			}
			a, b := x.g.EdgeEndpoints(e)
			w := int32(a)
			if w == f.v {
				w = int32(b)
			}
			stack = append(stack, exFrame{w, f.sub})
		}
	}
	x.outBuf, x.stk = out, stack
	return append([]int(nil), out...), true, true
}

// exItem is one exact-search queue entry: key = ℓ + π orders the heap,
// l carries ℓ for the stale-entry check. Ties break on (subset,
// vertex) so the settle order — and every tree — is deterministic.
type exItem struct {
	key float64
	l   float64
	v   int32
	sub uint16
}

func (a exItem) less(b exItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.sub != b.sub {
		return a.sub < b.sub
	}
	return a.v < b.v
}

// exHeap is the typed binary min-heap of the exact search (no
// container/heap boxing, as oHeap).
type exHeap []exItem

func (h *exHeap) push(it exItem) {
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

func (h *exHeap) pop() (exItem, bool) {
	s := *h
	if len(s) == 0 {
		return exItem{}, false
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
