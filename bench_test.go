// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§5.3) plus the in-text statistics and the DESIGN.md
// ablations. Each benchmark reports the paper's quantities through
// b.ReportMetric, so `go test -bench . -benchmem` reproduces the rows;
// cmd/routebench prints the same data as formatted tables.
//
// Experiment index (see DESIGN.md §4):
//
//	BenchmarkTableI_*            — full flows, Table I
//	BenchmarkTableII             — global detour ratios by terminal count
//	BenchmarkTableIII_*          — global routing comparison
//	BenchmarkFig1ResourceCurves  — convex γ curves
//	BenchmarkFig2LineEnd         — wire model / line-end policy
//	BenchmarkFig5TauFeasible     — τ-feasible off-track search
//	BenchmarkIntervalVsNode*     — Algorithm 4 vs node Dijkstra (§4.1 ≥6×)
//	BenchmarkFastGrid*           — fast grid on/off (§3.6 5.29×, 97.89 %)
//	BenchmarkFutureCosts*        — none vs π_H
//	BenchmarkSharingConvergence  — λ vs phase count t (§2.3 t=125, ε=1)
//	BenchmarkRoundingRepair      — §2.4 rounding/repair statistics
//	BenchmarkSteinerOracleRoot   — §2.2 oracle timing (≈0.3 ms in paper)
//	BenchmarkPinAccessQuality    — conflict-free vs greedy access
//	BenchmarkTrackOptimization   — optimized vs uniform tracks
//	BenchmarkStackedViaModel     — §2.5 stacked-via lattice model
package bonnroute_test

import (
	"context"

	"math/rand"
	"testing"

	"bonnroute"
	"bonnroute/internal/baseline"
	"bonnroute/internal/blockgrid"
	"bonnroute/internal/capest"
	"bonnroute/internal/core"
	"bonnroute/internal/detail"
	"bonnroute/internal/drc"
	"bonnroute/internal/geom"
	"bonnroute/internal/pathsearch"
	"bonnroute/internal/report"
	"bonnroute/internal/rules"
	"bonnroute/internal/sharing"
	"bonnroute/internal/steiner"
	"bonnroute/internal/tracks"
)

// benchChip is the Table I workload: one representative medium design.
func benchChip() *bonnroute.Chip {
	return bonnroute.GenerateChip(bonnroute.ChipParams{
		Seed: 11, Rows: 8, Cols: 24, NumNets: 140,
		NumLayers: 6, LocalityRadius: 10, PowerStripePeriod: 6,
	})
}

func reportFlow(b *testing.B, res *bonnroute.Result) {
	b.ReportMetric(float64(res.Metrics.Netlength), "netlength")
	b.ReportMetric(float64(res.Metrics.Vias), "vias")
	b.ReportMetric(float64(res.Metrics.Scenic25), "scenic25")
	b.ReportMetric(float64(res.Metrics.Scenic50), "scenic50")
	b.ReportMetric(float64(res.Metrics.Errors), "errors")
	b.ReportMetric(float64(res.Metrics.Unrouted), "unrouted")
}

// --- Table I ---

func BenchmarkTableI_ISR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bonnroute.RouteBaseline(context.Background(), benchChip(), bonnroute.WithOptions(bonnroute.Options{Seed: 11}))
		if i == b.N-1 {
			reportFlow(b, res)
		}
	}
}

func BenchmarkTableI_BRCleanup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bonnroute.Route(context.Background(), benchChip(), bonnroute.WithOptions(bonnroute.Options{Seed: 11}))
		if i == b.N-1 {
			reportFlow(b, res)
			b.ReportMetric(res.FastGridHitRate, "fg-hitrate")
		}
	}
}

// --- Table II ---

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := benchChip()
		res := bonnroute.Route(context.Background(), c, bonnroute.WithOptions(bonnroute.Options{Seed: 11}))
		if i < b.N-1 || res.Global == nil {
			continue
		}
		g := core.BuildGlobalGraph(c, 8)
		baselines := report.SteinerBaselinesAt(c, func(pi int) geom.Point {
			tx, ty := g.TileOf(c.Pins[pi].Center())
			return g.TileRect(tx, ty).Center()
		})
		perNet := make([]report.NetLength, len(c.Nets))
		for ni := range c.Nets {
			perNet[ni] = report.NetLength{
				Length: res.Global.PerNetLength[ni],
				Routed: res.Global.PerNetLength[ni] > 0,
			}
		}
		for _, row := range report.TableII(c, perNet, baselines) {
			if row.Steiner > 0 {
				b.ReportMetric(row.Ratio(), "ratio-"+row.Label[:1])
			}
		}
	}
}

// --- Table III ---

func BenchmarkTableIII_BRGlobal(b *testing.B) {
	c := benchChip()
	r := detail.New(c, detail.Options{})
	g := core.BuildGlobalGraph(c, 8)
	capest.Compute(c, r.TG, g, capest.Params{})
	capest.ReduceForIntraTile(c, g)
	specs := core.NetSpecs(c, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver := sharing.New(g, specs, sharing.Options{Phases: 32, Seed: 11})
		sres := solver.Run(context.Background())
		if i == b.N-1 {
			var length int64
			vias := 0
			for ni := range sres.Nets {
				t := sres.Nets[ni].Tree()
				edges := make([]int, len(t))
				for j, e := range t {
					edges[j] = int(e)
				}
				length += steiner.TreeLength(g, edges)
				vias += steiner.CountVias(g, edges)
			}
			b.ReportMetric(float64(length), "netlength")
			b.ReportMetric(float64(vias), "vias")
			b.ReportMetric(sres.LambdaFrac, "lambda")
			b.ReportMetric(float64(sres.AlgTime.Microseconds()), "alg2-us")
			b.ReportMetric(float64(sres.RepairTime.Microseconds()), "rr-us")
		}
	}
}

func BenchmarkTableIII_ISRGlobal(b *testing.B) {
	c := benchChip()
	r := detail.New(c, detail.Options{})
	g := core.BuildGlobalGraph(c, 8)
	capest.Compute(c, r.TG, g, capest.Params{})
	specs := core.NetSpecs(c, g)
	var gnets []baseline.GNet
	for _, s := range specs {
		gnets = append(gnets, baseline.GNet{ID: s.ID, Terminals: s.Terminals, Width: s.Width})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gres := baseline.GlobalRoute(context.Background(), g, gnets, baseline.GlobalOptions{})
		if i == b.N-1 {
			var length int64
			vias := 0
			for _, t := range gres.Trees {
				edges := make([]int, len(t))
				for j, e := range t {
					edges[j] = int(e)
				}
				length += steiner.TreeLength(g, edges)
				vias += steiner.CountVias(g, edges)
			}
			b.ReportMetric(float64(length), "netlength")
			b.ReportMetric(float64(vias), "vias")
			b.ReportMetric(float64(gres.Overflowed), "overflow")
		}
	}
}

// --- Fig. 1: convex resource-consumption curves ---

func BenchmarkFig1ResourceCurves(b *testing.B) {
	// γ for power is convex and decreasing in extra space; capacity is
	// linear increasing. The bench tabulates and verifies convexity.
	power := func(s float64) float64 { return 0.7/(1+s) + 0.3 }
	space := func(w, s float64) float64 { return w + s }
	for i := 0; i < b.N; i++ {
		prev2, prev1 := power(0.0), power(0.25)
		for s := 0.5; s <= 3.0; s += 0.25 {
			cur := power(s)
			// Convexity: successive differences are nondecreasing (the
			// curve is decreasing, so differences are negative and rise
			// toward zero).
			if cur-prev1 < prev1-prev2-1e-12 {
				b.Fatal("power curve not convex")
			}
			prev2, prev1 = prev1, cur
		}
		if space(1, 2) != 3 {
			b.Fatal("space curve wrong")
		}
	}
	b.ReportMetric(power(0), "power@0")
	b.ReportMetric(power(1), "power@1")
	b.ReportMetric(power(3), "power@3")
}

// --- Fig. 2: line-end policy / wire models ---

func BenchmarkFig2LineEnd(b *testing.B) {
	deck := rules.DefaultDeck(rules.DeckParams{NumLayers: 4, Pitch: 40})
	wt := deck.StandardWireType()
	pref := wt.Oriented(0, geom.Horizontal, geom.Horizontal)
	jog := wt.Oriented(0, geom.Vertical, geom.Horizontal)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := pref.Metal(geom.Pt(0, 0), geom.Pt(1000, 0))
		j := jog.Metal(geom.Pt(0, 0), geom.Pt(0, 80))
		if m.Empty() || j.Empty() {
			b.Fatal("empty metal")
		}
	}
	b.ReportMetric(float64(pref.Shape.W()-jog.Shape.W()), "lineend-extension-x2")
}

// --- Fig. 5: τ-feasible path search ---

func BenchmarkFig5TauFeasible(b *testing.B) {
	obst := []geom.Rect{geom.R(60, -40, 80, 40), geom.R(140, 0, 160, 90)}
	bounds := geom.R(-100, -100, 400, 300)
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		pts, _, ok := blockgrid.Search(obst, geom.Pt(0, 0), geom.Pt(250, 5), 20, bounds)
		if ok && blockgrid.SegmentsOK(pts, 20, obst) {
			found++
		}
	}
	b.ReportMetric(float64(found)/float64(b.N), "feasible-rate")
}

// --- §4.1: interval vs node labelling (the ≥6× claim) ---

func longSearchWorld() (*pathsearch.Config, []geom.Point3, []geom.Point3) {
	size := 8000
	nLayers := 4
	dirs := make([]geom.Direction, nLayers)
	coords := make([][]int, nLayers)
	for z := 0; z < nLayers; z++ {
		if z%2 == 0 {
			dirs[z] = geom.Horizontal
		} else {
			dirs[z] = geom.Vertical
		}
		for c := 20; c < size; c += 40 {
			coords[z] = append(coords[z], c)
		}
	}
	tg := tracks.BuildGraph(geom.R(0, 0, size, size), dirs, coords)
	costs := pathsearch.UniformCosts(nLayers, 3, 160)
	cfg := &pathsearch.Config{
		Tracks: tg,
		Costs:  costs,
		Pi: pathsearch.NewHFuture(nLayers, costs,
			map[int][]geom.Rect{0: {geom.R(7780, 20, 7781, 21)}}),
		WireRuns: func(z, ti, lo, hi int, visit func(lo, hi int, need drc.Need)) {},
		JogNeed:  func(z, lowerTi, along int) drc.Need { return 0 },
		ViaNeed:  func(v, botTi, topTi int, pos geom.Point) drc.Need { return 0 },
	}
	S := []geom.Point3{geom.Pt3(20, 20, 0)}
	T := []geom.Point3{geom.Pt3(7780, 20, 0)}
	return cfg, S, T
}

func BenchmarkIntervalVsNode_Interval(b *testing.B) {
	cfg, S, T := longSearchWorld()
	var pops int
	for i := 0; i < b.N; i++ {
		p := pathsearch.Search(cfg, S, T)
		if p == nil {
			b.Fatal("no path")
		}
		pops = p.Stats.HeapPops
	}
	b.ReportMetric(float64(pops), "heap-pops")
}

func BenchmarkIntervalVsNode_Node(b *testing.B) {
	cfg, S, T := longSearchWorld()
	var pops int
	for i := 0; i < b.N; i++ {
		p := pathsearch.NodeSearch(cfg, S, T)
		if p == nil {
			b.Fatal("no path")
		}
		pops = p.Stats.HeapPops
	}
	b.ReportMetric(float64(pops), "heap-pops")
}

// BenchmarkIntervalVsNode_IntervalSteady is the router-worker regime: one
// engine held across searches, so arena, queue, and label pools are warm.
// This is the allocation-free steady state the engine exists for; the
// plain Interval benchmark above includes the sync.Pool checkout.
func BenchmarkIntervalVsNode_IntervalSteady(b *testing.B) {
	cfg, S, T := longSearchWorld()
	e := pathsearch.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Search(cfg, S, T) == nil {
			b.Fatal("no path")
		}
	}
}

// --- §3.6: fast grid on/off ---

func fastGridChip() *bonnroute.Chip {
	// Dense: high utilization on a 4-layer stack, so legality queries hit
	// many shapes — the regime the fast grid exists for.
	return bonnroute.GenerateChip(bonnroute.ChipParams{
		Seed: 21, Rows: 10, Cols: 32, NumNets: 260,
		NumLayers: 4, LocalityRadius: 14, Utilization: 92,
		PowerStripePeriod: 4,
	})
}

func BenchmarkFastGrid_On(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer() // construction excluded: measure the routing phase
		r := detail.New(fastGridChip(), detail.Options{})
		b.StartTimer()
		r.Route(context.Background())
		if i == b.N-1 {
			b.ReportMetric(r.FastGridHitRate(), "hit-rate")
		}
	}
}

func BenchmarkFastGrid_Off(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := detail.New(fastGridChip(), detail.Options{NoFastGrid: true})
		b.StartTimer()
		r.Route(context.Background())
	}
}

// BenchmarkFastGridQuery isolates the §3.6 query-level speedup (the
// paper's 5.29×): answering an on-track legality question from the
// bit-packed cache versus asking the distance rule checking module.
func BenchmarkFastGridQuery_Cache(b *testing.B) {
	c := fastGridChip()
	r := detail.New(c, detail.Options{})
	r.Route(context.Background())
	wt := c.WireTypes[0]
	rng := rand.New(rand.NewSource(5))
	type q struct{ z, ti, along int }
	qs := make([]q, 4096)
	for i := range qs {
		z := rng.Intn(c.NumLayers())
		ti := rng.Intn(len(r.TG.Layers[z].Coords))
		span := c.Area.Span(c.Dir(z))
		qs[i] = q{z, ti, span.Lo + rng.Intn(span.Len())}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := qs[i%len(qs)]
		r.FG.WireNeed(k.z, k.ti, k.along, wt)
	}
}

func BenchmarkFastGridQuery_Checker(b *testing.B) {
	c := fastGridChip()
	r := detail.New(c, detail.Options{})
	r.Route(context.Background())
	wt := c.WireTypes[0]
	rng := rand.New(rand.NewSource(5))
	type q struct {
		z    int
		rect geom.Rect
		cl   rules.ShapeClass
	}
	qs := make([]q, 4096)
	for i := range qs {
		z := rng.Intn(c.NumLayers())
		layer := &r.TG.Layers[z]
		ti := rng.Intn(len(layer.Coords))
		span := c.Area.Span(c.Dir(z))
		along := span.Lo + rng.Intn(span.Len())
		m := wt.Oriented(z, layer.Dir, layer.Dir)
		var pt geom.Point
		if layer.Dir == geom.Horizontal {
			pt = geom.Pt(along, layer.Coords[ti])
		} else {
			pt = geom.Pt(layer.Coords[ti], along)
		}
		qs[i] = q{z, m.Shape.Translated(pt), m.Class}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := qs[i%len(qs)]
		r.Space.RectNeed(k.z, k.rect, k.cl, drc.AnyNet)
	}
}

// --- §4.1: future costs ---

func BenchmarkFutureCosts(b *testing.B) {
	mk := func(name string, pi func(costs pathsearch.Costs) pathsearch.FutureCost) {
		b.Run(name, func(b *testing.B) {
			cfg, S, T := longSearchWorld()
			if pi != nil {
				cfg.Pi = pi(cfg.Costs)
			} else {
				cfg.Pi = nil
			}
			var labels int
			for i := 0; i < b.N; i++ {
				p := pathsearch.Search(cfg, S, T)
				if p == nil {
					b.Fatal("no path")
				}
				labels = p.Stats.Labels
			}
			b.ReportMetric(float64(labels), "labels")
		})
	}
	mk("none", nil)
	mk("piH", func(costs pathsearch.Costs) pathsearch.FutureCost {
		return pathsearch.NewHFuture(4, costs, map[int][]geom.Rect{0: {geom.R(7780, 20, 7781, 21)}})
	})
}

// --- §2.3: resource sharing convergence (t, ε) ---

func BenchmarkSharingConvergence(b *testing.B) {
	c := benchChip()
	r := detail.New(c, detail.Options{})
	g := core.BuildGlobalGraph(c, 8)
	capest.Compute(c, r.TG, g, capest.Params{})
	specs := core.NetSpecs(c, g)
	for _, t := range []int{8, 32, 125} {
		b.Run("t="+itoa(t), func(b *testing.B) {
			var lambda float64
			for i := 0; i < b.N; i++ {
				res := sharing.New(g, specs, sharing.Options{Phases: t, Seed: 11}).Run(context.Background())
				lambda = res.LambdaFrac
			}
			b.ReportMetric(lambda, "lambda")
		})
	}
}

// --- §2.4: rounding and repair ---

func BenchmarkRoundingRepair(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	dirs := []geom.Direction{geom.Horizontal, geom.Vertical, geom.Horizontal, geom.Vertical}
	// A contended random instance.
	gg := core.BuildGlobalGraph(bonnroute.GenerateChip(bonnroute.ChipParams{
		Seed: 31, Rows: 8, Cols: 16, NumNets: 10}), 8)
	_ = dirs
	for e := range gg.Cap {
		gg.Cap[e] = 4
	}
	var specs []sharing.NetSpec
	for i := 0; i < 150; i++ {
		x0, y0 := rng.Intn(gg.NX), rng.Intn(gg.NY)
		x1, y1 := rng.Intn(gg.NX), rng.Intn(gg.NY)
		if x0 == x1 && y0 == y1 {
			continue
		}
		specs = append(specs, sharing.NetSpec{
			ID:        len(specs),
			Terminals: [][]int{{gg.Vertex(x0, y0, 0)}, {gg.Vertex(x1, y1, rng.Intn(2))}},
			Width:     1,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sharing.New(gg, specs, sharing.Options{Phases: 24, Seed: int64(i)}).Run(context.Background())
		if i == b.N-1 {
			b.ReportMetric(float64(res.RoundingViolations), "violations")
			b.ReportMetric(float64(res.RechooseChanges), "rechosen")
			b.ReportMetric(float64(res.Rerouted), "rerouted")
			b.ReportMetric(float64(res.RechooseChanges+res.Rerouted)/float64(len(specs)), "repair-frac")
		}
	}
}

// --- §2.2: Steiner oracle timing ---

func BenchmarkSteinerOracleRoot(b *testing.B) {
	c := benchChip()
	r := detail.New(c, detail.Options{})
	g := core.BuildGlobalGraph(c, 8)
	capest.Compute(c, r.TG, g, capest.Params{})
	specs := core.NetSpecs(c, g)
	oracle := steiner.NewOracle(g)
	cost := func(e int) float64 {
		if g.Cap[e] <= 0 {
			return -1
		}
		return float64(g.EdgeLength(e)) + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := &specs[i%len(specs)]
		oracle.Tree(cost, spec.Terminals)
	}
}

// --- §4.3 ablation: conflict-free vs greedy pin access ---

func BenchmarkPinAccessQuality(b *testing.B) {
	run := func(name string, greedy bool) {
		b.Run(name, func(b *testing.B) {
			var errs, routed int
			for i := 0; i < b.N; i++ {
				c := fastGridChip()
				r := detail.New(c, detail.Options{GreedyAccess: greedy})
				res := r.Route(context.Background())
				routed = res.Routed
				errs = auditErrors(r)
			}
			b.ReportMetric(float64(routed), "routed")
			b.ReportMetric(float64(errs), "errors")
		})
	}
	run("conflict-free", false)
	run("greedy", true)
}

// --- §3.5 ablation: optimized vs uniform tracks ---

func BenchmarkTrackOptimization(b *testing.B) {
	run := func(name string, uniform bool) {
		b.Run(name, func(b *testing.B) {
			var length float64
			var vias int
			for i := 0; i < b.N; i++ {
				c := fastGridChip()
				r := detail.New(c, detail.Options{UniformTracks: uniform})
				r.Route(context.Background())
				length = 0
				vias = 0
				for ni := range c.Nets {
					st := r.NetStats(ni)
					if st.Routed {
						length += float64(st.Length)
						vias += st.Vias
					}
				}
			}
			b.ReportMetric(length, "netlength")
			b.ReportMetric(float64(vias), "vias")
		})
	}
	run("optimized", false)
	run("uniform", true)
}

// --- §2.5: stacked-via lattice model ---

func BenchmarkStackedViaModel(b *testing.B) {
	var l float64
	for i := 0; i < b.N; i++ {
		l = capest.StackedViaColumnLoad(8, 2, 40, 40)
	}
	b.ReportMetric(l, "max-col-load")
}

// --- helpers ---

func auditErrors(r *detail.Router) int {
	c := r.Chip
	netPins := map[int32][]drc.LayerRect{}
	for ni := range c.Nets {
		if !r.NetStats(ni).Routed {
			continue
		}
		for _, pi := range c.Nets[ni].Pins {
			p := &c.Pins[pi]
			netPins[int32(ni)] = append(netPins[int32(ni)], drc.LayerRect{
				Rect: p.Shapes[0].Rect, Layer: p.Shapes[0].Layer,
			})
		}
	}
	return r.Space.Audit(c.Area, netPins).Errors()
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}
