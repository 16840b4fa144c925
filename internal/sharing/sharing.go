// Package sharing implements BonnRoute's global routing core: the
// min-max resource sharing approximation scheme (paper §2.2–§2.3,
// Algorithm 2 after Müller–Radke–Vygen), with the Steiner-tree oracle of
// Algorithm 1, convex resource-consumption functions with extra space
// assignment (Fig. 1), the oracle-reuse speed-up of §2.3, the parallel
// block solve of §5.1 — here in a deterministic phase-snapshot variant:
// workers price nets against frozen phase-start prices and the updates
// are applied serially in net order at the phase barrier, so any worker
// count computes the identical solution — and the randomized rounding
// plus rechoose/reroute repair of §2.4.
package sharing

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bonnroute/internal/grid"
	"bonnroute/internal/obs"
	"bonnroute/internal/steiner"
)

// NetSpec describes one net of the global routing instance.
type NetSpec struct {
	ID int
	// Terminals are the vertex sets V_p of the net's pins (§2.1).
	Terminals [][]int
	// Width is w(n, e): wire width plus minimum spacing in capacity
	// units (1.0 = one standard track).
	Width float64
	// AllowExtra permits assigning extra space s(n, e) > 0 (§2.1); the
	// solver weighs reduced power against capacity consumption.
	AllowExtra bool
}

// Options tune the solver.
type Options struct {
	// Phases is t of Algorithm 2 (paper: t = 125 works well; smaller
	// values trade quality for time). Default 48.
	Phases int
	// Epsilon is the price growth exponent (paper: ε = 1). Default 1.
	Epsilon float64
	// LengthCap is the guessed achievable total netlength u^len (§2.1);
	// 0 derives it as 1.15 × the sum of terminal bounding boxes.
	LengthCap float64
	// PowerCap enables the convex power resource when > 0 (arbitrary
	// power units; the γ curves follow Fig. 1).
	PowerCap float64
	// Workers is the number of parallel block solvers (§5.1); ≤ 1 is
	// serial. The result is identical for every value (phase-snapshot
	// pricing); Workers only changes wall time.
	Workers int
	// Seed drives randomized rounding.
	Seed int64
	// ReuseSlack is the oracle-reuse tolerance: the previous tree is kept
	// while its re-priced cost stays within (1+ReuseSlack) of the cost it
	// had when computed. Negative disables reuse. Default 0.25.
	ReuseSlack float64
	// ExtraLevels are the candidate extra-space values (fractions of a
	// track) evaluated in the edge-cost minimization of eq. (1).
	// Default {0, 0.5, 1}.
	ExtraLevels []float64
	// ViaLengthEquiv charges each via this much wire length in the
	// netlength objective (the paper optimizes wire length AND via
	// count); 0 derives half a tile.
	ViaLengthEquiv float64
	// ShardTiles shards the per-phase pricing work by congestion-region
	// tiles: the NX×NY tile array is covered with square regions of
	// ShardTiles×ShardTiles tiles, nets are bucketed by the region
	// holding their terminal bounding-box center, and workers drain the
	// region list — ordered by (region row, region col), nets in net-index
	// order within a region — through an atomic cursor. Spatially close
	// nets then price on the same worker (shared oracle search windows,
	// warm caches) and the queue balances hot regions across workers,
	// unlike the static contiguous chunking used when sharding is off.
	// This is pure work decomposition: every net is still priced exactly
	// once per phase against the frozen phase-start snapshot and prices
	// are applied serially in net order at the barrier, so the solution
	// is bit-identical at any worker count, sharding on or off.
	// 0 disables sharding (static chunks).
	ShardTiles int
}

func (o *Options) setDefaults() {
	if o.Phases <= 0 {
		o.Phases = 48
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.ReuseSlack == 0 {
		o.ReuseSlack = 0.25
	}
	if len(o.ExtraLevels) == 0 {
		o.ExtraLevels = []float64{0, 0.5, 1}
	}
}

// Candidate is one integral solution b ∈ B_n^int with its convex weight.
type Candidate struct {
	Edges []int32
	// Extra[i] is the extra space on Edges[i].
	Extra []float32
	// Weight is x_{n,b} after normalization (sums to 1 per net).
	Weight float64
}

// NetResult is the per-net outcome.
type NetResult struct {
	Candidates []Candidate
	// Chosen indexes Candidates after rounding/repair; -1 if unrouted.
	Chosen int
}

// Tree returns the chosen tree's edges (nil when unrouted).
func (n *NetResult) Tree() []int32 {
	if n.Chosen < 0 || n.Chosen >= len(n.Candidates) {
		return nil
	}
	return n.Candidates[n.Chosen].Edges
}

// Result is the global routing solution.
type Result struct {
	Nets []NetResult
	// LambdaFrac is max_r Σ_n g_n^r of the fractional (averaged)
	// solution — the approximation quality certificate.
	LambdaFrac float64
	// LambdaHistory records the per-phase maximum load.
	LambdaHistory []float64
	// OracleCalls and OracleReuses count oracle invocations vs. reuses.
	OracleCalls, OracleReuses int64
	// PCCalls and PCOracleTime count every Path Composition call of the
	// run (phase pricing and repair reroutes) and their wall time.
	// Observational only — no solver decision reads them. ExactCalls and
	// ExactOracleTime are always 0: global routing has one oracle
	// (DESIGN.md §13); they are kept so that the benchmark's
	// steiner.exact_* metrics keep their names.
	ExactCalls, PCCalls           int64
	ExactOracleTime, PCOracleTime time.Duration
	// RoundingViolations is the number of overloaded resources right
	// after randomized rounding; RepairedByRechoose and Rerouted count
	// the §2.4 repair actions.
	RoundingViolations int
	RechooseChanges    int
	Rerouted           int
	// Unrouted counts nets without a feasible tree.
	Unrouted int
	// AlgTime is the Algorithm 2 phase-loop time; RepairTime covers
	// randomized rounding plus rechoose/reroute (the "R&R" column of
	// Table III).
	AlgTime, RepairTime time.Duration
	// Cancelled reports that the context was cancelled mid-run; the
	// result covers only the phases completed before cancellation (the
	// repair pipeline is skipped, so rounding uses partial weights).
	Cancelled bool
}

// Solver holds the problem and workspaces.
type Solver struct {
	G    *grid.Graph
	Nets []NetSpec
	Opt  Options

	// prices holds the resource prices (edges, then [len] [power]).
	// During a phase the workers read it as an immutable snapshot; the
	// price updates of the phase are applied serially, in net order, at
	// the phase barrier (see Run), so the solve is deterministic for any
	// worker count.
	prices   []float64
	lenCap   float64
	powerCap float64
	viaLen   float64
	nRes     int
	// Per-worker Path Composition oracles (not concurrency-safe, hence
	// one per worker).
	oracles []*steiner.Oracle
	calls   int64
	reuses  int64
	// Every oracle call and its wall time (atomics; see Result).
	pcCalls, pcNanos int64
	// shards groups net indices by congestion-region tile when
	// Opt.ShardTiles > 0 (see Options.ShardTiles); nil otherwise.
	shards [][]int32
}

const (
	resLenOffset = 0 // prices[E+0]
	resPowOffset = 1
)

// New creates a solver. Edge capacities are read from g.Cap; capacity 0
// edges are unusable.
func New(g *grid.Graph, nets []NetSpec, opt Options) *Solver {
	opt.setDefaults()
	s := &Solver{G: g, Nets: nets, Opt: opt}
	s.nRes = g.NumEdges() + 2
	s.prices = make([]float64, s.nRes)
	for i := range s.prices {
		s.prices[i] = 1
	}
	s.lenCap = opt.LengthCap
	if s.lenCap <= 0 {
		var sum float64
		for i := range nets {
			sum += float64(terminalBBoxLength(g, nets[i].Terminals))
		}
		s.lenCap = 1.15 * math.Max(sum, 1)
	}
	s.powerCap = opt.PowerCap
	s.viaLen = opt.ViaLengthEquiv
	if s.viaLen <= 0 {
		s.viaLen = float64(g.TileW) / 2
	}
	s.oracles = make([]*steiner.Oracle, opt.Workers)
	for i := range s.oracles {
		s.oracles[i] = steiner.NewOracle(g)
	}
	if opt.ShardTiles > 0 {
		s.shards = buildShards(g, nets, opt.ShardTiles)
	}
	return s
}

// buildShards buckets nets into congestion-region tiles: square regions
// of st×st grid tiles, keyed by the region containing the net's
// terminal bounding-box center. The returned shard order — (region row,
// region col) major, net index within a region — is a pure function of
// the instance, independent of worker count and scheduling.
func buildShards(g *grid.Graph, nets []NetSpec, st int) [][]int32 {
	rx := (g.NX + st - 1) / st
	ry := (g.NY + st - 1) / st
	buckets := make([][]int32, rx*ry)
	for ni := range nets {
		first := true
		var minX, maxX, minY, maxY int
		for _, vs := range nets[ni].Terminals {
			for _, v := range vs {
				tx, ty, _ := g.VertexCoords(v)
				if first {
					minX, maxX, minY, maxY = tx, tx, ty, ty
					first = false
				} else {
					minX, maxX = min(minX, tx), max(maxX, tx)
					minY, maxY = min(minY, ty), max(maxY, ty)
				}
			}
		}
		cx, cy := 0, 0
		if !first {
			cx, cy = (minX+maxX)/2/st, (minY+maxY)/2/st
		}
		key := cy*rx + cx
		buckets[key] = append(buckets[key], int32(ni))
	}
	shards := buckets[:0]
	for _, b := range buckets {
		if len(b) > 0 {
			shards = append(shards, b)
		}
	}
	return shards
}

// treeFor answers one Steiner oracle call on worker w's oracle and
// counts the call and its wall time.
func (s *Solver) treeFor(w int, cost func(e int) float64, terminals [][]int) ([]int, bool) {
	start := time.Now()
	edges, ok := s.oracles[w].Tree(cost, terminals)
	atomic.AddInt64(&s.pcNanos, time.Since(start).Nanoseconds())
	atomic.AddInt64(&s.pcCalls, 1)
	return edges, ok
}

// terminalBBoxLength estimates the Steiner lower bound of a net as the
// half-perimeter of its terminal tiles.
func terminalBBoxLength(g *grid.Graph, terminals [][]int) int {
	first := true
	var minX, maxX, minY, maxY int
	for _, vs := range terminals {
		for _, v := range vs {
			tx, ty, _ := g.VertexCoords(v)
			if first {
				minX, maxX, minY, maxY = tx, tx, ty, ty
				first = false
			} else {
				minX, maxX = min(minX, tx), max(maxX, tx)
				minY, maxY = min(minY, ty), max(maxY, ty)
			}
		}
	}
	if first {
		return 0
	}
	return (maxX-minX)*g.TileW + (maxY-minY)*g.TileH
}

func (s *Solver) price(r int) float64 { return s.prices[r] }

// bumpPrice multiplies price r by factor. Only called from the serial
// phase-barrier sweep, never concurrently — phases read prices as an
// immutable snapshot, which is what makes the parallel solve
// deterministic (§5.1's volatility-tolerant updates traded determinism
// for freshness; the snapshot variant gives up within-phase freshness
// and keeps results identical for every worker count).
func (s *Solver) bumpPrice(r int, factor float64) { s.prices[r] *= factor }

// powerOf is the convex power consumption per unit length at extra space
// s (Fig. 1's dashed curve): coupling falls off as space grows.
func powerOf(extra float64) float64 { return 0.7/(1+extra) + 0.3 }

// edgeCost evaluates eq. (1): the total priced cost of net n using edge
// e with the best extra-space level, returning cost and the minimizing
// level. A negative cost marks the edge unusable.
func (s *Solver) edgeCost(n *NetSpec, e int) (float64, float64) {
	cap := s.G.Cap[e]
	if cap <= 0 {
		return -1, 0
	}
	if n.Width > cap {
		return -1, 0
	}
	length := float64(s.G.EdgeLength(e))
	if s.G.IsVia(e) {
		length = s.viaLen // vias are charged equivalent wire length
	}
	yLen := s.price(s.G.NumEdges() + resLenOffset)
	yPow := 0.0
	if s.powerCap > 0 {
		yPow = s.price(s.G.NumEdges() + resPowOffset)
	}
	yE := s.price(e)

	levels := s.Opt.ExtraLevels
	if !n.AllowExtra {
		levels = levels[:1]
	}
	bestCost := math.Inf(1)
	bestLevel := 0.0
	for _, lv := range levels {
		use := n.Width + lv
		if use > cap {
			continue
		}
		c := yE * use / cap
		c += yLen * length / s.lenCap
		if yPow > 0 {
			c += yPow * length * powerOf(lv) / s.powerCap
		}
		// Vias get a base cost so trees do not zigzag between layers.
		if s.G.IsVia(e) {
			c += yE * 0.05
		}
		if c < bestCost {
			bestCost = c
			bestLevel = lv
		}
	}
	if math.IsInf(bestCost, 1) {
		return -1, 0
	}
	return bestCost, bestLevel
}

// netLoads computes g_n^r(b) for all resources a candidate touches,
// invoking visit(resource, load).
func (s *Solver) netLoads(n *NetSpec, c *Candidate, visit func(r int, g float64)) {
	var lenSum, powSum float64
	for i, e := range c.Edges {
		cap := s.G.Cap[e]
		use := n.Width + float64(c.Extra[i])
		visit(int(e), use/cap)
		l := float64(s.G.EdgeLength(int(e)))
		if s.G.IsVia(int(e)) {
			l = s.viaLen
		}
		lenSum += l
		powSum += l * powerOf(float64(c.Extra[i]))
	}
	if lenSum > 0 {
		visit(s.G.NumEdges()+resLenOffset, lenSum/s.lenCap)
	}
	if s.powerCap > 0 && powSum > 0 {
		visit(s.G.NumEdges()+resPowOffset, powSum/s.powerCap)
	}
}

// Run executes Algorithm 2 and the §2.4 rounding/repair pipeline.
//
// ctx carries cancellation (checked at phase boundaries and between
// nets inside a phase) and, via obs.SpanFrom, the parent span under
// which per-phase child spans are emitted: one "global.phase" span per
// phase with λ, oracle-call/reuse deltas, and the price-update count,
// plus a "global.repair" span covering rounding/rechoose/reroute. On
// cancellation Run returns a partial Result with Cancelled set.
func (s *Solver) Run(ctx context.Context) *Result {
	if ctx == nil {
		ctx = context.Background()
	}
	span := obs.SpanFrom(ctx)
	algStart := time.Now()
	res := &Result{Nets: make([]NetResult, len(s.Nets))}
	type netState struct {
		lastCand int     // candidate index computed last
		lastCost float64 // its priced cost when computed
		counts   []float64
	}
	states := make([]netState, len(s.Nets))
	for i := range states {
		states[i].lastCand = -1
	}
	// addCandidate dedups by edge-set signature (with an exact
	// comparison fallback on hash equality, see findCandidate).
	addCandidate := func(ni int, edges []int, extras []float32) int {
		nr := &res.Nets[ni]
		if ci := findCandidate(nr.Candidates, edges, extras); ci >= 0 {
			return ci
		}
		es := make([]int32, len(edges))
		for i, e := range edges {
			es[i] = int32(e)
		}
		nr.Candidates = append(nr.Candidates, Candidate{Edges: es, Extra: extras})
		states[ni].counts = append(states[ni].counts, 0)
		return len(nr.Candidates) - 1
	}

	fracLoad := make([]float64, s.nRes)

	for phase := 0; phase < s.Opt.Phases; phase++ {
		if ctx.Err() != nil {
			res.Cancelled = true
			break
		}
		phSpan := span.Child("global.phase", obs.Int("phase", phase))
		callsBefore, reusesBefore := atomic.LoadInt64(&s.calls), atomic.LoadInt64(&s.reuses)
		phaseLoad := make([]float64, s.nRes)
		var priceUpdates int64

		// Workers price every net against the phase-start snapshot of
		// s.prices and record their choice in chosen[ni]; the actual
		// price updates happen after the barrier, serially in net order,
		// so both the candidate selection and the floating-point
		// accumulation order are independent of the worker count and of
		// goroutine scheduling.
		chosen := make([]int, len(s.Nets))
		priceNet := func(worker, ni int) {
			chosen[ni] = -1
			if ctx.Err() != nil {
				return
			}
			n := &s.Nets[ni]
			st := &states[ni]
			nr := &res.Nets[ni]

			ci := -1
			// Oracle reuse (§2.3): keep the previous tree while its
			// re-priced cost has not degraded too much.
			if st.lastCand >= 0 && s.Opt.ReuseSlack >= 0 {
				c := &nr.Candidates[st.lastCand]
				cost := s.candCost(n, c)
				if cost >= 0 && cost <= (1+s.Opt.ReuseSlack)*st.lastCost {
					ci = st.lastCand
					atomic.AddInt64(&s.reuses, 1)
				}
			}
			if ci < 0 {
				edges, ok := s.treeFor(worker, func(e int) float64 {
					c, _ := s.edgeCost(n, e)
					return c
				}, n.Terminals)
				atomic.AddInt64(&s.calls, 1)
				if !ok {
					return
				}
				// edgeCost is pure under the frozen phase snapshot, so
				// re-evaluating it yields the level the oracle priced.
				ex := make([]float32, len(edges))
				for i, e := range edges {
					_, lv := s.edgeCost(n, e)
					ex[i] = float32(lv)
				}
				ci = addCandidate(ni, edges, ex)
				st.lastCand = ci
				st.lastCost = s.candCost(n, &nr.Candidates[ci])
			}
			chosen[ni] = ci
		}

		switch {
		case s.Opt.Workers <= 1:
			for ni := range s.Nets {
				priceNet(0, ni)
			}
		case s.shards != nil:
			// Congestion-region shard queue: workers take whole regions
			// in the fixed buildShards order through an atomic cursor.
			// Which worker prices which net affects only scheduling —
			// chosen[ni] slots and per-net state keep the outcome
			// independent of the interleaving.
			var cursor atomic.Int64
			drain := func(w int) {
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(s.shards) {
						return
					}
					for _, ni := range s.shards[i] {
						priceNet(w, int(ni))
					}
				}
			}
			var wg sync.WaitGroup
			for w := 1; w < s.Opt.Workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					drain(w)
				}(w)
			}
			drain(0)
			wg.Wait()
		default:
			// The calling goroutine handles the first chunk itself and
			// spawns only the rest, so Workers>1 on a single-core host
			// costs at most the chunk bookkeeping over the serial path.
			var wg sync.WaitGroup
			chunk := (len(s.Nets) + s.Opt.Workers - 1) / s.Opt.Workers
			for w := 1; w < s.Opt.Workers; w++ {
				lo := w * chunk
				hi := min(lo+chunk, len(s.Nets))
				if lo >= hi {
					break
				}
				wg.Add(1)
				go func(w, lo, hi int) {
					defer wg.Done()
					for ni := lo; ni < hi; ni++ {
						priceNet(w, ni)
					}
				}(w, lo, hi)
			}
			for ni := 0; ni < min(chunk, len(s.Nets)); ni++ {
				priceNet(0, ni)
			}
			wg.Wait()
		}

		// Serial price application in net order (the phase barrier).
		for ni := range s.Nets {
			ci := chosen[ni]
			if ci < 0 {
				continue
			}
			st := &states[ni]
			st.counts[ci]++
			c := &res.Nets[ni].Candidates[ci]
			s.netLoads(&s.Nets[ni], c, func(r int, g float64) {
				s.bumpPrice(r, math.Exp(s.Opt.Epsilon*g))
				phaseLoad[r] += g
				priceUpdates++
			})
		}

		lambda := 0.0
		for r := range phaseLoad {
			if phaseLoad[r] > lambda {
				lambda = phaseLoad[r]
			}
			fracLoad[r] += phaseLoad[r]
		}
		res.LambdaHistory = append(res.LambdaHistory, lambda)
		phSpan.End(obs.F64("lambda", lambda),
			obs.Int64("oracle_calls", atomic.LoadInt64(&s.calls)-callsBefore),
			obs.Int64("oracle_reuses", atomic.LoadInt64(&s.reuses)-reusesBefore),
			obs.Int64("price_updates", priceUpdates))
	}

	// Normalize weights; fractional λ.
	for ni := range res.Nets {
		st := &states[ni]
		total := 0.0
		for _, c := range st.counts {
			total += c
		}
		if total == 0 {
			res.Nets[ni].Chosen = -1
			res.Unrouted++
			continue
		}
		for ci := range res.Nets[ni].Candidates {
			res.Nets[ni].Candidates[ci].Weight = st.counts[ci] / total
		}
	}
	for r := range fracLoad {
		if l := fracLoad[r] / float64(s.Opt.Phases); l > res.LambdaFrac {
			res.LambdaFrac = l
		}
	}

	res.AlgTime = time.Since(algStart)
	repairStart := time.Now()
	rrSpan := span.Child("global.repair")
	s.roundAndRepair(ctx, rrSpan, res)
	rrSpan.End(obs.Int("violations", res.RoundingViolations),
		obs.Int("rechosen", res.RechooseChanges),
		obs.Int("rerouted", res.Rerouted))
	res.RepairTime = time.Since(repairStart)
	res.OracleCalls = s.calls
	res.OracleReuses = s.reuses
	res.PCCalls = s.pcCalls
	res.PCOracleTime = time.Duration(s.pcNanos)
	if ctx.Err() != nil {
		res.Cancelled = true
	}
	return res
}

// candCost prices a full candidate under current prices.
func (s *Solver) candCost(n *NetSpec, c *Candidate) float64 {
	total := 0.0
	for i, e := range c.Edges {
		cap := s.G.Cap[e]
		if cap <= 0 || n.Width+float64(c.Extra[i]) > cap {
			return -1
		}
		total += s.price(int(e)) * (n.Width + float64(c.Extra[i])) / cap
		l := float64(s.G.EdgeLength(int(e)))
		if s.G.IsVia(int(e)) {
			l = s.viaLen
		}
		total += s.price(s.G.NumEdges()+resLenOffset) * l / s.lenCap
		if s.powerCap > 0 {
			total += s.price(s.G.NumEdges()+resPowOffset) * l * powerOf(float64(c.Extra[i])) / s.powerCap
		}
	}
	return total
}

// findCandidate returns the index of an existing candidate identical
// to (edges, extras), or -1. Candidates are screened by their 64-bit
// signature; on signature equality the edge and extra slices are then
// compared exactly, so a hash collision can never alias two distinct
// candidates (dropping one would silently shrink the oracle's choice
// set for the rest of the run).
func findCandidate(cands []Candidate, edges []int, extras []float32) int {
	sig := signature(edges, extras)
	for ci := range cands {
		c := &cands[ci]
		if signature32(c.Edges, c.Extra) == sig && sameCandidate(c, edges, extras) {
			return ci
		}
	}
	return -1
}

// sameCandidate reports whether the stored candidate is exactly the
// proposed (edges, extras) pair — the collision fallback behind the
// signature screen in findCandidate.
func sameCandidate(c *Candidate, edges []int, extras []float32) bool {
	if len(c.Edges) != len(edges) || len(c.Extra) != len(extras) {
		return false
	}
	for i, e := range edges {
		if int(c.Edges[i]) != e {
			return false
		}
	}
	for i, x := range extras {
		if math.Float32bits(c.Extra[i]) != math.Float32bits(x) {
			return false
		}
	}
	return true
}

func signature(edges []int, extras []float32) uint64 {
	var h uint64 = 1469598103934665603
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for i, e := range edges {
		mix(uint64(e))
		mix(uint64(math.Float32bits(extras[i])))
	}
	return h
}

func signature32(edges []int32, extras []float32) uint64 {
	var h uint64 = 1469598103934665603
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for i, e := range edges {
		mix(uint64(e))
		mix(uint64(math.Float32bits(extras[i])))
	}
	return h
}

// roundAndRepair implements §2.4: randomized rounding, rechoosing
// among existing candidates, and rerouting the few remaining nets.
// Randomized rounding always runs (it is cheap and gives the partial
// result integral trees); the rechoose/reroute repair loops observe ctx
// and stop at pass boundaries. Repair events are emitted on span.
func (s *Solver) roundAndRepair(ctx context.Context, span *obs.Span, res *Result) {
	rng := rand.New(rand.NewSource(s.Opt.Seed))
	E := s.G.NumEdges()
	load := make([]float64, E) // capacity-resource loads only

	apply := func(ni, ci int, sign float64) {
		n := &s.Nets[ni]
		c := &res.Nets[ni].Candidates[ci]
		for i, e := range c.Edges {
			load[e] += sign * (n.Width + float64(c.Extra[i]))
		}
	}

	// Randomized rounding.
	for ni := range res.Nets {
		nr := &res.Nets[ni]
		if len(nr.Candidates) == 0 {
			nr.Chosen = -1
			continue
		}
		x := rng.Float64()
		acc := 0.0
		nr.Chosen = len(nr.Candidates) - 1
		for ci := range nr.Candidates {
			acc += nr.Candidates[ci].Weight
			if x <= acc {
				nr.Chosen = ci
				break
			}
		}
		apply(ni, nr.Chosen, +1)
	}

	overflow := func(e int) float64 { return math.Max(0, load[e]-s.G.Cap[e]) }
	totalOverflow := func() (float64, int) {
		t, cnt := 0.0, 0
		for e := 0; e < E; e++ {
			if o := overflow(e); o > 1e-9 {
				t += o
				cnt++
			}
		}
		return t, cnt
	}
	_, res.RoundingViolations = totalOverflow()
	span.Event("rounding", obs.Int("violations", res.RoundingViolations))

	// Rechoose: local search over existing candidates.
	for pass := 0; pass < 4; pass++ {
		if ctx.Err() != nil {
			return
		}
		improved := false
		for ni := range res.Nets {
			nr := &res.Nets[ni]
			if nr.Chosen < 0 || len(nr.Candidates) < 2 {
				continue
			}
			// Only consider nets touching an overloaded edge.
			touches := false
			for _, e := range nr.Candidates[nr.Chosen].Edges {
				if overflow(int(e)) > 1e-9 {
					touches = true
					break
				}
			}
			if !touches {
				continue
			}
			cur, _ := totalOverflow()
			best := nr.Chosen
			for ci := range nr.Candidates {
				if ci == nr.Chosen {
					continue
				}
				apply(ni, nr.Chosen, -1)
				apply(ni, ci, +1)
				if t, _ := totalOverflow(); t < cur-1e-9 {
					cur = t
					best = ci
				}
				apply(ni, ci, -1)
				apply(ni, nr.Chosen, +1)
			}
			if best != nr.Chosen {
				apply(ni, nr.Chosen, -1)
				nr.Chosen = best
				apply(ni, best, +1)
				res.RechooseChanges++
				improved = true
			}
		}
		if t, _ := totalOverflow(); t < 1e-9 || !improved {
			break
		}
	}
	if res.RechooseChanges > 0 {
		span.Event("rechoose", obs.Int("changes", res.RechooseChanges))
	}

	// Reroute: for nets still on overloaded edges, one oracle call with
	// overflow-penalized prices.
	if t, _ := totalOverflow(); t > 1e-9 {
		for ni := range res.Nets {
			if ctx.Err() != nil {
				return
			}
			nr := &res.Nets[ni]
			if nr.Chosen < 0 {
				continue
			}
			bad := false
			for _, e := range nr.Candidates[nr.Chosen].Edges {
				if overflow(int(e)) > 1e-9 {
					bad = true
					break
				}
			}
			if !bad {
				continue
			}
			n := &s.Nets[ni]
			apply(ni, nr.Chosen, -1)
			edges, ok := s.treeFor(0, func(e int) float64 {
				cap := s.G.Cap[e]
				if cap <= 0 || n.Width > cap {
					return -1
				}
				c := float64(s.G.EdgeLength(e)) + 1
				if load[e]+n.Width > cap {
					c += 1e6 * (load[e] + n.Width - cap)
				}
				return c
			}, n.Terminals)
			if !ok {
				apply(ni, nr.Chosen, +1)
				continue
			}
			ex := make([]float32, len(edges))
			es := make([]int32, len(edges))
			for i, e := range edges {
				es[i] = int32(e)
			}
			nr.Candidates = append(nr.Candidates, Candidate{Edges: es, Extra: ex})
			nr.Chosen = len(nr.Candidates) - 1
			apply(ni, nr.Chosen, +1)
			res.Rerouted++
			if t, _ := totalOverflow(); t < 1e-9 {
				break
			}
		}
	}
}

// EdgeLoads returns the final per-edge capacity loads of the chosen
// trees (for reporting and capacity checks).
func (s *Solver) EdgeLoads(res *Result) []float64 {
	load := make([]float64, s.G.NumEdges())
	for ni := range res.Nets {
		nr := &res.Nets[ni]
		if nr.Chosen < 0 {
			continue
		}
		c := &nr.Candidates[nr.Chosen]
		for i, e := range c.Edges {
			load[e] += s.Nets[ni].Width + float64(c.Extra[i])
		}
	}
	return load
}
