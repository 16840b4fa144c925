// Command routebench regenerates the paper's evaluation tables on a
// suite of synthetic chips: Table I (ISR vs BR+cleanup full flows),
// Table II (global routing netlength over Steiner length by terminal
// count), Table III (BR-global vs ISR-global), and table 4, the
// path-search engine micro-benchmarks (interval vs node labelling,
// bucket vs heap queue, steady-state allocation counts).
//
// Usage:
//
//	routebench [-table 0|1|2|3|4] [-suite small|medium|large|scaling] [-workers N]
//	           [-workers-sweep 1,2,4,8] [-sweep-runs N] [-diff-parallel f] [-eco]
//	           [-cpuprofile f] [-memprofile f] [-bench-json f]
//	           [-trace f.jsonl] [-progress]
//
// -table 0 (default) prints everything. -bench-json writes the runs'
// machine-readable results (per-stage timings, path-search effort
// counters, micro-benchmark rows) to the given file.
//
// -eco replaces the tables with the incremental (ECO) rerouting
// comparison: every suite chip is routed once, a small random delta
// (a few percent of the netlist) is applied, and incremental.Reroute
// is timed against a from-scratch run of the same mutated chip. Both
// results must clear the verifier; -bench-json then writes the
// comparison document (BENCH_eco.json).
//
// -workers-sweep replaces the tables with the detail-stage scaling
// sweep: every suite chip is measured at each worker count with
// runtime.GOMAXPROCS set to that count — one untimed warmup run, then
// the median of -sweep-runs measured runs — and the host CPU model and
// logical-CPU count are recorded alongside. The quality fields are
// required to be bit-identical across counts and runs (the §5.1
// determinism contract), and -bench-json then writes the scaling
// document (BENCH_parallel.json) carrying both the measured and the
// clearly-labeled modeled (LPT critical path) speedups. -diff-parallel
// compares the sweep's quality fields against a committed artifact and
// exits non-zero on drift (the `make bench-scaling` gate).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"bonnroute/internal/baseline"
	"bonnroute/internal/capest"
	"bonnroute/internal/chip"
	"bonnroute/internal/core"
	"bonnroute/internal/detail"
	"bonnroute/internal/drc"
	"bonnroute/internal/geom"
	"bonnroute/internal/obs"
	"bonnroute/internal/pathsearch"
	"bonnroute/internal/report"
	"bonnroute/internal/sharing"
	"bonnroute/internal/steiner"
	"bonnroute/internal/tracks"
)

// flowJSON is one full-flow run in the -bench-json output.
type flowJSON struct {
	Name        string     `json:"name"`
	GlobalMS    float64    `json:"global_ms"`
	DetailMS    float64    `json:"detail_ms"`
	CleanupMS   float64    `json:"cleanup_ms"`
	TotalMS     float64    `json:"total_ms"`
	Netlength   int64      `json:"netlength"`
	Vias        int        `json:"vias"`
	Scenic25    int        `json:"scenic25"`
	Scenic50    int        `json:"scenic50"`
	Errors      int        `json:"errors"`
	Unrouted    int        `json:"unrouted"`
	SearchStats *statsJSON `json:"search_stats,omitempty"`
}

// statsJSON mirrors pathsearch.Stats without omitempty: the library type
// elides zero counters (useful for compact traces), but in the committed
// benchmark artifacts a missing counter is ambiguous — the ISR flows run
// the node-based search, which legitimately performs zero crossing
// expansions, and that zero must be visible rather than absent.
type statsJSON struct {
	Labels    int `json:"labels"`
	HeapPops  int `json:"heap_pops"`
	Expanded  int `json:"expanded"`
	Intervals int `json:"intervals"`
	Searches  int `json:"searches"`
	PiReused  int `json:"pi_reused"`
}

// benchRowJSON is one micro-benchmark row (testing.Benchmark output).
type benchRowJSON struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchJSON is the -bench-json document.
type benchJSON struct {
	Suite      string         `json:"suite"`
	Workers    int            `json:"workers"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Flows      []flowJSON     `json:"flows,omitempty"`
	PathSearch []benchRowJSON `json:"pathsearch_bench,omitempty"`
	// SeedBaseline holds the same micro-benchmarks measured at the
	// pre-engine commit, for the speedup/allocation comparison.
	SeedBaseline []benchRowJSON `json:"seed_baseline,omitempty"`
	SeedRef      string         `json:"seed_ref,omitempty"`
}

var collect *benchJSON

// runCtx and tracer configure every flow run in this process; set up in
// main from -trace / -progress.
var (
	runCtx = context.Background()
	tracer *obs.Tracer
)

// suite returns the chip parameter sets standing in for the paper's
// eight IBM designs (scaled to laptop size; three tiers).
func suite(name string) []chip.GenParams {
	switch name {
	case "eco":
		// The -eco chips: medium-to-large designs whose full-flow cost is
		// dominated by routing work (global solve + detail search) rather
		// than the stage costs both flows share (space/track construction,
		// final audit), so the comparison measures what the ECO engine
		// actually avoids.
		return []chip.GenParams{
			{Name: "eco1", Seed: 12, Rows: 8, Cols: 24, NumNets: 140, NumLayers: 6, LocalityRadius: 12, PowerStripePeriod: 4},
			{Name: "eco2", Seed: 13, Rows: 10, Cols: 32, NumNets: 240, NumLayers: 6, LocalityRadius: 8, PowerStripePeriod: 8},
			{Name: "eco3", Seed: 13, Rows: 12, Cols: 40, NumNets: 420, NumLayers: 6, LocalityRadius: 10, PowerStripePeriod: 8},
			{Name: "eco4", Seed: 14, Rows: 12, Cols: 48, NumNets: 520, NumLayers: 6, LocalityRadius: 20, PowerStripePeriod: 8},
		}
	case "small":
		return []chip.GenParams{
			{Name: "chip1", Seed: 11, Rows: 6, Cols: 16, NumNets: 60, NumLayers: 4, LocalityRadius: 6, PowerStripePeriod: 6},
			{Name: "chip2", Seed: 12, Rows: 6, Cols: 16, NumNets: 60, NumLayers: 6, LocalityRadius: 10, PowerStripePeriod: 4},
		}
	case "scaling":
		// The -workers-sweep chips: wide (many columns) so regionSchedule
		// opens with 8+ strips, and local (small radius) so most nets are
		// strip-assignable and the parallel rounds carry the flow. wide3
		// is the large instance: wide enough for a 16-strip opening round,
		// giving 8 workers real slack (≥2 tasks each before stealing).
		return []chip.GenParams{
			{Name: "wide1", Seed: 11, Rows: 8, Cols: 96, NumNets: 240, NumLayers: 4, LocalityRadius: 2, PowerStripePeriod: 6},
			{Name: "wide2", Seed: 12, Rows: 6, Cols: 96, NumNets: 220, NumLayers: 4, LocalityRadius: 2, PowerStripePeriod: 4},
			{Name: "wide3", Seed: 13, Rows: 10, Cols: 256, NumNets: 640, NumLayers: 4, LocalityRadius: 2, PowerStripePeriod: 6},
		}
	case "large":
		return []chip.GenParams{
			{Name: "chip1", Seed: 11, Rows: 10, Cols: 32, NumNets: 260, NumLayers: 4, LocalityRadius: 8, PowerStripePeriod: 6},
			{Name: "chip2", Seed: 12, Rows: 10, Cols: 32, NumNets: 260, NumLayers: 6, LocalityRadius: 14, PowerStripePeriod: 4},
			{Name: "chip3", Seed: 13, Rows: 12, Cols: 40, NumNets: 420, NumLayers: 6, LocalityRadius: 10, PowerStripePeriod: 8},
			{Name: "chip4", Seed: 14, Rows: 12, Cols: 48, NumNets: 520, NumLayers: 6, LocalityRadius: 20, PowerStripePeriod: 8},
		}
	default: // medium
		return []chip.GenParams{
			{Name: "chip1", Seed: 11, Rows: 8, Cols: 24, NumNets: 140, NumLayers: 4, LocalityRadius: 6, PowerStripePeriod: 6},
			{Name: "chip2", Seed: 12, Rows: 8, Cols: 24, NumNets: 140, NumLayers: 6, LocalityRadius: 12, PowerStripePeriod: 4},
			{Name: "chip3", Seed: 13, Rows: 10, Cols: 32, NumNets: 240, NumLayers: 6, LocalityRadius: 8, PowerStripePeriod: 8},
		}
	}
}

func main() {
	var (
		table      = flag.Int("table", 0, "which table to print (0 = tables I-III; 4 = path-search micro-benchmarks)")
		suiteName  = flag.String("suite", "medium", "small, medium, or large")
		workers    = flag.Int("workers", 1, "parallel workers")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file (taken at exit)")
		benchOut   = flag.String("bench-json", "", "write machine-readable results to this file")
		traceOut   = flag.String("trace", "", "write a JSONL trace to this file")
		progress   = flag.Bool("progress", false, "print live span progress to stderr")
		sweepArg   = flag.String("workers-sweep", "", "comma-separated worker counts (first must be 1); runs the detail-stage scaling sweep instead of the tables")
		sweepRuns  = flag.Int("sweep-runs", 3, "with -workers-sweep: measured runs per worker count (median reported; one extra warmup run)")
		diffPar    = flag.String("diff-parallel", "", "with -workers-sweep: compare quality fields against this BENCH_parallel.json and exit non-zero on drift")
		ecoMode    = flag.Bool("eco", false, "run the incremental (ECO) rerouting comparison instead of the tables; -bench-json writes BENCH_eco.json")
		svcMode    = flag.Bool("service", false, "benchmark the routing service daemon over loopback HTTP instead of the tables; -bench-json writes BENCH_service.json")
		svcDeltas  = flag.Int("service-deltas", 30, "with -service: length of the seeded ECO delta stream")
		steinMode  = flag.Bool("steiner", false, "compare the exact Steiner oracle against Path Composition per degree bucket; -bench-json writes BENCH_steiner.json")
		scaleNets  = flag.Int("scale-nets", 100000, "with -suite huge: net count of the scale run")
		scaleSeed  = flag.Int64("scale-seed", 777, "with -suite huge: chip seed (also seeds the verifier's sampling)")
		shardTiles = flag.Int("shard-tiles", 8, "with -suite huge: congestion-region shard size in tiles (0 = unsharded)")
	)
	flag.Parse()

	var sinks []obs.Sink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		js := obs.NewJSONLSink(f)
		defer func() {
			if err := js.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
			}
			f.Close()
		}()
		sinks = append(sinks, js)
	}
	if *progress {
		sinks = append(sinks, obs.NewProgressSink(os.Stderr))
	}
	tracer = obs.New(sinks...)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *benchOut != "" {
		collect = &benchJSON{Suite: *suiteName, Workers: *workers, GoMaxProcs: runtime.GOMAXPROCS(0)}
	}

	params := suite(*suiteName)
	var benchDoc any = collect
	if *suiteName == "huge" {
		// The scale tier: one verified large run with the sampled pass
		// matrix and footprint report; -bench-json writes BENCH_scale.json.
		benchDoc = scaleBench(*scaleNets, *scaleSeed, *workers, *shardTiles)
	} else if *svcMode {
		benchDoc = serviceBench(*workers, *svcDeltas)
	} else if *steinMode {
		benchDoc = steinerBench(*suiteName, params)
	} else if *ecoMode {
		benchDoc = ecoBench(*suiteName, params, *workers)
	} else if *sweepArg != "" {
		counts, err := parseWorkerCounts(*sweepArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "workers-sweep:", err)
			os.Exit(1)
		}
		doc := workersSweep(*suiteName, params, counts, *sweepRuns)
		if *diffPar != "" {
			if err := diffParallel(doc, *diffPar); err != nil {
				fmt.Fprintln(os.Stderr, "diff-parallel:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "quality fields match %s\n", *diffPar)
		}
		benchDoc = doc
	} else {
		if *table == 0 || *table == 1 {
			tableI(params, *workers)
		}
		if *table == 0 || *table == 2 {
			tableII(params, *workers)
		}
		if *table == 0 || *table == 3 {
			tableIII(params)
		}
		if *table == 0 || *table == 4 {
			tableIV()
		}
	}

	if *benchOut != "" {
		data, err := json.MarshalIndent(benchDoc, "", "  ")
		if err == nil {
			err = os.WriteFile(*benchOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-json:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *benchOut)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			os.Exit(1)
		}
	}
}

func tableI(params []chip.GenParams, workers int) {
	fmt.Println("=== Table I: full flows (ISR vs BR+cleanup) ===")
	var rows []report.Metrics
	for _, p := range params {
		fmt.Fprintf(os.Stderr, "[table I] %s (%d nets requested)...\n", p.Name, p.NumNets)
		opt := core.Options{Workers: workers, Seed: p.Seed, Tracer: tracer}

		isr := core.RouteBaseline(runCtx, chip.Generate(p), opt)
		isr.Metrics.Name = p.Name + "/ISR"
		rows = append(rows, isr.Metrics)
		collectFlow(isr)

		br := core.RouteBonnRoute(runCtx, chip.Generate(p), opt)
		br.Metrics.Name = p.Name + "/BR+cleanup"
		rows = append(rows, br.Metrics)
		collectFlow(br)
	}
	fmt.Print(report.FormatTableI(rows))
	fmt.Println()
}

// collectFlow records one flow run into the -bench-json document.
func collectFlow(res *core.Result) {
	if collect == nil {
		return
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	fj := flowJSON{
		Name:      res.Metrics.Name,
		DetailMS:  ms(res.DetailTime),
		CleanupMS: ms(res.CleanupTime),
		TotalMS:   ms(res.Metrics.Runtime),
		Netlength: res.Metrics.Netlength,
		Vias:      res.Metrics.Vias,
		Scenic25:  res.Metrics.Scenic25,
		Scenic50:  res.Metrics.Scenic50,
		Errors:    res.Metrics.Errors,
		Unrouted:  res.Metrics.Unrouted,
	}
	if res.Global != nil {
		fj.GlobalMS = ms(res.Global.Total)
	}
	if res.Router != nil {
		st := res.Router.SearchStats()
		fj.SearchStats = &statsJSON{
			Labels: st.Labels, HeapPops: st.HeapPops, Expanded: st.Expanded,
			Intervals: st.Intervals, Searches: st.Searches, PiReused: st.PiReused,
		}
	}
	collect.Flows = append(collect.Flows, fj)
}

func tableII(params []chip.GenParams, workers int) {
	fmt.Println("=== Table II: BR-global netlength over Steiner length by terminal count ===")
	agg := make([]report.TerminalClassRow, 6)
	for _, p := range params {
		fmt.Fprintf(os.Stderr, "[table II] %s...\n", p.Name)
		c := chip.Generate(p)
		res := core.RouteBonnRoute(runCtx, c, core.Options{Workers: workers, Seed: p.Seed, SkipGlobal: false, Tracer: tracer})
		if res.Global == nil {
			continue
		}
		perNet := make([]report.NetLength, len(c.Nets))
		for ni := range c.Nets {
			perNet[ni] = report.NetLength{
				Length: res.Global.PerNetLength[ni],
				Routed: res.Global.PerNetLength[ni] > 0,
			}
		}
		// Steiner baselines on the tile-grid metric (global routes run
		// tile-center to tile-center).
		g := core.BuildGlobalGraph(c, 8)
		baselines := report.SteinerBaselinesAt(c, func(pi int) geom.Point {
			tx, ty := g.TileOf(c.Pins[pi].Center())
			return g.TileRect(tx, ty).Center()
		})
		rows := report.TableII(c, perNet, baselines)
		for i := range rows {
			if agg[i].Label == "" {
				agg[i].Label = rows[i].Label
			}
			agg[i].Netlength += rows[i].Netlength
			agg[i].Steiner += rows[i].Steiner
		}
	}
	fmt.Print(report.FormatTableII(agg))
	fmt.Println()
}

func tableIII(params []chip.GenParams) {
	fmt.Println("=== Table III: global routing (BR-global vs ISR-global) ===")
	var rows []report.GlobalMetrics
	for _, p := range params {
		fmt.Fprintf(os.Stderr, "[table III] %s...\n", p.Name)
		c := chip.Generate(p)
		r := detail.New(c, detail.Options{})
		g := core.BuildGlobalGraph(c, 8)
		capest.Compute(c, r.TG, g, capest.Params{})
		capest.ReduceForIntraTile(c, g)

		var steinerLen int64
		for _, b := range report.SteinerBaselinesAt(c, func(pi int) geom.Point {
			tx, ty := g.TileOf(c.Pins[pi].Center())
			return g.TileRect(tx, ty).Center()
		}) {
			steinerLen += b
		}

		// BR-global.
		start := time.Now()
		solver := sharing.New(g, core.NetSpecs(c, g), sharing.Options{Phases: 32, Seed: p.Seed})
		sres := solver.Run(runCtx)
		brTotal := time.Since(start)
		var brLen int64
		brVias := 0
		over := 0
		loads := solver.EdgeLoads(sres)
		for e, l := range loads {
			if l > g.Cap[e]+1e-9 {
				over++
			}
		}
		for ni := range sres.Nets {
			t := sres.Nets[ni].Tree()
			edges := make([]int, len(t))
			for i, e := range t {
				edges[i] = int(e)
			}
			brLen += steiner.TreeLength(g, edges)
			brVias += steiner.CountVias(g, edges)
		}
		rows = append(rows, report.GlobalMetrics{
			Name:    p.Name + "/BR-glob",
			Runtime: brTotal, AlgTime: sres.AlgTime, RRTime: sres.RepairTime,
			Netlength: brLen, Steiner: steinerLen, Vias: brVias, OverloadedE: over,
		})

		// ISR-global.
		var gnets []baseline.GNet
		for _, spec := range core.NetSpecs(c, g) {
			gnets = append(gnets, baseline.GNet{ID: spec.ID, Terminals: spec.Terminals, Width: spec.Width})
		}
		gres := baseline.GlobalRoute(runCtx, g, gnets, baseline.GlobalOptions{})
		var isrLen int64
		isrVias := 0
		for _, t := range gres.Trees {
			edges := make([]int, len(t))
			for i, e := range t {
				edges[i] = int(e)
			}
			isrLen += steiner.TreeLength(g, edges)
			isrVias += steiner.CountVias(g, edges)
		}
		rows = append(rows, report.GlobalMetrics{
			Name:    p.Name + "/ISR-glob",
			Runtime: gres.Runtime, Netlength: isrLen, Steiner: steinerLen,
			Vias: isrVias, OverloadedE: gres.Overflowed,
		})
	}
	fmt.Print(report.FormatTableIII(rows))
}

// searchWorld is the micro-benchmark scenario (the same long straight
// connection the test harness's BenchmarkIntervalVsNode uses): 4 layers,
// 8000 DBU, pitch-40 tracks, free space, π_H toward the target.
func searchWorld() (*pathsearch.Config, []geom.Point3, []geom.Point3) {
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

// tableIV runs the path-search engine micro-benchmarks: pooled one-shot
// calls, the steady-state engine (the router-worker regime), and the
// node-labelling reference.
func tableIV() {
	fmt.Println("=== Path-search engine micro-benchmarks ===")
	cfg, S, T := searchWorld()

	run := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		fmt.Printf("%-28s %10d ns/op %10d B/op %8d allocs/op\n",
			name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp())
		if collect != nil {
			collect.PathSearch = append(collect.PathSearch, benchRowJSON{
				Name:        name,
				NsPerOp:     float64(r.NsPerOp()),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			})
		}
	}

	run("Interval/pooled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pathsearch.Search(cfg, S, T) == nil {
				b.Fatal("no path")
			}
		}
	})
	run("Interval/steady", func(b *testing.B) {
		e := pathsearch.NewEngine()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if e.Search(cfg, S, T) == nil {
				b.Fatal("no path")
			}
		}
	})
	run("Node/steady", func(b *testing.B) {
		e := pathsearch.NewEngine()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if e.NodeSearch(cfg, S, T) == nil {
				b.Fatal("no path")
			}
		}
	})

	if collect != nil {
		// The same scenario measured at the pre-engine seed commit (per-
		// call allocation of heaps, maps, and label slices), kept for the
		// speedup/allocation comparison.
		collect.SeedRef = "c92c32d"
		collect.SeedBaseline = []benchRowJSON{
			{Name: "Interval/percall", NsPerOp: 170915, BytesPerOp: 75307, AllocsPerOp: 1233},
			{Name: "Node/percall", NsPerOp: 410709, BytesPerOp: 240331, AllocsPerOp: 2592},
		}
	}
}
