// Package core is the public façade of the BonnRoute reproduction: it
// wires the substrates into the two flows of the paper's evaluation —
// the BonnRoute flow (min-max resource sharing global routing, capacity
// estimation, interval-based detailed routing with fast grid and
// conflict-free pin access, plus a DRC cleanup pass) and the ISR-like
// baseline flow (sequential negotiated global routing, node-based maze
// detailed routing) — and computes the §5.3 metrics for both.
package core

import (
	"context"
	"runtime"
	"time"

	"bonnroute/internal/baseline"
	"bonnroute/internal/capest"
	"bonnroute/internal/chip"
	"bonnroute/internal/detail"
	"bonnroute/internal/drc"
	"bonnroute/internal/geom"
	"bonnroute/internal/grid"
	"bonnroute/internal/obs"
	"bonnroute/internal/report"
	"bonnroute/internal/sharing"
	"bonnroute/internal/steiner"
)

// Options tune a routing run. The JSON tags are the wire form the
// routing service accepts (zero fields take the defaults); the tracer
// and the sharding decomposition are process-local and not on the wire.
type Options struct {
	// Seed drives randomized rounding.
	Seed int64 `json:"seed,omitempty"`
	// Workers is the parallelism for both stages. Default 1.
	Workers int `json:"workers,omitempty"`
	// GlobalPhases is Algorithm 2's t. Default 32.
	GlobalPhases int `json:"global_phases,omitempty"`
	// TileTracks sets the global tile size in tracks (the paper uses
	// 50–100; the synthetic chips are smaller, default 8).
	TileTracks int `json:"tile_tracks,omitempty"`
	// PowerCap enables the power resource in global routing.
	PowerCap float64 `json:"power_cap,omitempty"`
	// SkipGlobal routes without global guidance (detailed-only mode).
	SkipGlobal bool `json:"skip_global,omitempty"`
	// EcoThreshold is the dirty-fraction above which incremental
	// rerouting falls back to a full from-scratch run (see package
	// incremental). Default 0.35; negative disables the fallback.
	EcoThreshold float64 `json:"eco_threshold,omitempty"`
	// ShardTiles shards the global-routing phase work by
	// congestion-region tiles of this many grid tiles per side (see
	// sharing.Options.ShardTiles). Pure work decomposition — results are
	// bit-identical with sharding on or off at any worker count. 0
	// disables sharding.
	ShardTiles int `json:"-"`
	// Tracer receives spans, counters and events for the whole flow. A
	// nil tracer is a no-op and costs nothing on the hot path.
	Tracer *obs.Tracer `json:"-"`
}

func (o *Options) setDefaults() {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.GlobalPhases <= 0 {
		o.GlobalPhases = 32
	}
	if o.TileTracks <= 0 {
		o.TileTracks = 8
	}
	if o.EcoThreshold == 0 {
		o.EcoThreshold = 0.35
	}
}

// SetDefaults fills zero-valued options in place (exported for flows —
// like package incremental — assembled outside this package).
func (o *Options) SetDefaults() { o.setDefaults() }

// GlobalStats reports the global routing stage.
type GlobalStats struct {
	Lambda        float64
	LambdaHistory []float64
	OracleCalls   int64
	OracleReuses  int64
	Rechosen      int
	Rerouted      int
	Violations    int
	Unrouted      int
	Overflowed    int
	// Iterations is the baseline flow's negotiation iteration count.
	Iterations int
	// PerNetLength and PerNetVias are the global-route geometry per net.
	PerNetLength []int64
	PerNetVias   []int
	// AlgTime is the Algorithm 2 (or negotiation) time; RRTime the
	// rounding/repair time.
	AlgTime, RRTime, Total time.Duration
}

// GlobalAssignment exposes the global routing solution for independent
// verification: the grid graph with its capest capacities, the rounded
// tree (edge list) per net, the per-edge extra widths of each chosen
// candidate (nil entries when the solver granted none), the per-net
// capacity widths, and — when the flow computed them — the reported
// per-edge loads the overflow count was derived from.
type GlobalAssignment struct {
	Graph  *grid.Graph
	Trees  [][]int32
	Extras [][]float32
	Widths []float64
	Loads  []float64
}

// Result is a complete flow outcome.
type Result struct {
	Flow   string
	Chip   *chip.Chip
	Global *GlobalStats
	// Assignment carries the raw global routing solution (nil when the
	// flow ran with SkipGlobal).
	Assignment *GlobalAssignment
	Detail     *detail.Result
	Router     *detail.Router
	Audit      drc.AuditResult
	PerNet     []report.NetLength
	Metrics    report.Metrics
	// CleanupTime is the DRC cleanup pass duration (BonnRoute flow).
	CleanupTime time.Duration
	// DetailTime is the detailed routing duration.
	DetailTime time.Duration
	// FastGridHitRate is the §3.6 statistic.
	FastGridHitRate float64
	// CleanupFixed counts nets repaired by the DRC cleanup pass.
	CleanupFixed int
	// Cancelled reports that the flow stopped early because the context
	// was cancelled; all populated fields describe the partial run.
	Cancelled bool
}

// BuildGlobalGraph constructs the global routing grid for a chip.
func BuildGlobalGraph(c *chip.Chip, tileTracks int) *grid.Graph {
	pitch := c.Deck.Layers[0].Pitch
	tile := tileTracks * pitch
	dirs := make([]geom.Direction, c.NumLayers())
	for z := range dirs {
		dirs[z] = c.Dir(z)
	}
	return grid.New(c.Area, tile, tile, dirs)
}

// NetSpecs derives the global routing net descriptions: one terminal
// vertex set per pin at the pin's tile and layer; wide nets get width 2
// and may take extra space.
func NetSpecs(c *chip.Chip, g *grid.Graph) []sharing.NetSpec {
	specs := make([]sharing.NetSpec, len(c.Nets))
	for ni := range c.Nets {
		n := &c.Nets[ni]
		spec := sharing.NetSpec{ID: ni, Width: 1}
		if n.WireType != 0 {
			spec.Width = 2
			spec.AllowExtra = true
		}
		for _, pi := range n.Pins {
			p := &c.Pins[pi]
			tx, ty := g.TileOf(p.Center())
			spec.Terminals = append(spec.Terminals, []int{g.Vertex(tx, ty, p.Shapes[0].Layer)})
		}
		specs[ni] = spec
	}
	return specs
}

// RouteBonnRoute runs the full BonnRoute flow. ctx cancellation is
// honoured at stage, phase and round boundaries; a cancelled run still
// returns a partial Result with Cancelled set. Spans for every stage are
// emitted on opt.Tracer (nil = off).
func RouteBonnRoute(ctx context.Context, c *chip.Chip, opt Options) *Result {
	opt.setDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{Flow: "BR+cleanup", Chip: c}
	start := time.Now()

	root := opt.Tracer.Start("flow.br",
		obs.Int("nets", len(c.Nets)), obs.Int("workers", opt.Workers))
	defer func() { root.End(obs.Bool("cancelled", res.Cancelled)) }()
	ctx = obs.ContextWithSpan(ctx, root)

	// Detailed-router construction first: it owns routing space, tracks
	// and the fast grid, which capacity estimation also needs. Pin-access
	// catalogues (§4.3) are built here, so the prep span carries the
	// branch-and-bound effort.
	prepSpan := root.Child("stage.prep")
	r := detail.New(c, detail.Options{Workers: opt.Workers})
	as := r.AccessStats()
	prepSpan.End(obs.Int("access_catalogues", as.Catalogues),
		obs.Int("access_bb_nodes", as.BBNodes),
		obs.Int("access_reserved", as.Reserved))
	res.Router = r

	var trees [][]int32
	if !opt.SkipGlobal && ctx.Err() == nil {
		g := BuildGlobalGraph(c, opt.TileTracks)
		ceSpan := root.Child("stage.capest")
		capest.Compute(c, r.TG, g, capest.Params{})
		capest.ReduceForIntraTile(c, g)
		ceSpan.End(obs.Int("edges", g.NumEdges()))

		specs := NetSpecs(c, g)
		algStart := time.Now()
		gSpan := root.Child("stage.global", obs.Int("phases", opt.GlobalPhases))
		solver := sharing.New(g, specs, sharing.Options{
			Phases:     opt.GlobalPhases,
			Workers:    opt.Workers,
			Seed:       opt.Seed,
			PowerCap:   opt.PowerCap,
			ShardTiles: opt.ShardTiles,
		})
		sres := solver.Run(obs.ContextWithSpan(ctx, gSpan))
		total := time.Since(algStart)
		gSpan.End(obs.F64("lambda", sres.LambdaFrac),
			obs.Int64("oracle_calls", sres.OracleCalls),
			obs.Int64("oracle_reuses", sres.OracleReuses),
			obs.Int("violations", sres.RoundingViolations),
			obs.Int("unrouted", sres.Unrouted))
		if sres.Cancelled {
			res.Cancelled = true
		}

		gs := &GlobalStats{
			Lambda:        sres.LambdaFrac,
			LambdaHistory: sres.LambdaHistory,
			OracleCalls:   sres.OracleCalls,
			OracleReuses:  sres.OracleReuses,
			Rechosen:      sres.RechooseChanges,
			Rerouted:      sres.Rerouted,
			Violations:    sres.RoundingViolations,
			Unrouted:      sres.Unrouted,
			AlgTime:       sres.AlgTime,
			RRTime:        sres.RepairTime,
			Total:         total,
		}
		gs.PerNetLength = make([]int64, len(c.Nets))
		gs.PerNetVias = make([]int, len(c.Nets))
		trees = make([][]int32, len(c.Nets))
		loads := solver.EdgeLoads(sres)
		for e, l := range loads {
			if l > g.Cap[e]+1e-9 {
				gs.Overflowed++
			}
		}
		extras := make([][]float32, len(c.Nets))
		widths := make([]float64, len(c.Nets))
		for ni := range sres.Nets {
			nr := &sres.Nets[ni]
			t := nr.Tree()
			trees[ni] = t
			if nr.Chosen >= 0 && nr.Chosen < len(nr.Candidates) {
				extras[ni] = nr.Candidates[nr.Chosen].Extra
			}
			widths[ni] = specs[ni].Width
			edges := make([]int, len(t))
			for i, e := range t {
				edges[i] = int(e)
			}
			gs.PerNetLength[ni] = steiner.TreeLength(g, edges)
			gs.PerNetVias[ni] = steiner.CountVias(g, edges)
		}
		res.Global = gs
		res.Assignment = &GlobalAssignment{
			Graph: g, Trees: trees, Extras: extras, Widths: widths, Loads: loads,
		}
		r.SetGlobalCorridors(g, trees)
	}

	dStart := time.Now()
	dSpan := root.Child("stage.detail")
	res.Detail = r.Route(obs.ContextWithSpan(ctx, dSpan))
	dSpan.End(obs.Int("routed", res.Detail.Routed),
		obs.Int("failed", res.Detail.Failed),
		obs.Int("rounds", res.Detail.Rounds),
		obs.Int("ripups", res.Detail.RipupEvents),
		obs.Int("access_dynamic", r.AccessStats().Dynamic))
	res.DetailTime = time.Since(dStart)
	if res.Detail.Cancelled {
		res.Cancelled = true
	}

	// DRC cleanup pass (§5.2): rip and reroute nets implicated in
	// remaining violations.
	cStart := time.Now()
	clSpan := root.Child("stage.cleanup")
	res.CleanupFixed = Cleanup(obs.ContextWithSpan(ctx, clSpan), r, 2)
	clSpan.End(obs.Int("fixed", res.CleanupFixed))
	res.CleanupTime = time.Since(cStart)

	res.finish(ctx, c, r, time.Since(start))
	if ctx.Err() != nil {
		res.Cancelled = true
	}
	return res
}

// RouteBaseline runs the ISR-like flow. ctx and tracing behave as in
// RouteBonnRoute.
func RouteBaseline(ctx context.Context, c *chip.Chip, opt Options) *Result {
	opt.setDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{Flow: "ISR", Chip: c}
	start := time.Now()

	root := opt.Tracer.Start("flow.isr",
		obs.Int("nets", len(c.Nets)), obs.Int("workers", opt.Workers))
	defer func() { root.End(obs.Bool("cancelled", res.Cancelled)) }()
	ctx = obs.ContextWithSpan(ctx, root)

	prepSpan := root.Child("stage.prep")
	r := baseline.NewDetail(c, opt.Workers)
	prepSpan.End()
	res.Router = r

	if !opt.SkipGlobal && ctx.Err() == nil {
		g := BuildGlobalGraph(c, opt.TileTracks)
		ceSpan := root.Child("stage.capest")
		capest.Compute(c, r.TG, g, capest.Params{})
		ceSpan.End(obs.Int("edges", g.NumEdges()))

		var gnets []baseline.GNet
		for _, spec := range NetSpecs(c, g) {
			gnets = append(gnets, baseline.GNet{ID: spec.ID, Terminals: spec.Terminals, Width: spec.Width})
		}
		gSpan := root.Child("stage.global")
		gres := baseline.GlobalRoute(obs.ContextWithSpan(ctx, gSpan), g, gnets, baseline.GlobalOptions{})
		if gres.Cancelled {
			res.Cancelled = true
		}
		gs := &GlobalStats{
			Overflowed: gres.Overflowed,
			Iterations: gres.Iterations,
			Total:      gres.Runtime,
		}
		for _, t := range gres.Trees {
			if t == nil {
				gs.Unrouted++
			}
		}
		gSpan.End(obs.Int("iterations", gres.Iterations),
			obs.Int("overflowed", gres.Overflowed),
			obs.Int("unrouted", gs.Unrouted))
		gs.PerNetLength = make([]int64, len(c.Nets))
		gs.PerNetVias = make([]int, len(c.Nets))
		for ni, t := range gres.Trees {
			edges := make([]int, len(t))
			for i, e := range t {
				edges[i] = int(e)
			}
			gs.PerNetLength[ni] = steiner.TreeLength(g, edges)
			gs.PerNetVias[ni] = steiner.CountVias(g, edges)
		}
		res.Global = gs
		widths := make([]float64, len(gnets))
		for _, gn := range gnets {
			widths[gn.ID] = gn.Width
		}
		res.Assignment = &GlobalAssignment{Graph: g, Trees: gres.Trees, Widths: widths}
		r.SetGlobalCorridors(g, gres.Trees)
	}

	dStart := time.Now()
	dSpan := root.Child("stage.detail")
	res.Detail = r.Route(obs.ContextWithSpan(ctx, dSpan))
	dSpan.End(obs.Int("routed", res.Detail.Routed),
		obs.Int("failed", res.Detail.Failed),
		obs.Int("rounds", res.Detail.Rounds))
	res.DetailTime = time.Since(dStart)
	if res.Detail.Cancelled {
		res.Cancelled = true
	}

	res.finish(ctx, c, r, time.Since(start))
	if ctx.Err() != nil {
		res.Cancelled = true
	}
	return res
}

// Finalize computes the PerNet report, full-chip DRC audit and §5.3
// metrics for a Result whose stages were run outside this package (the
// incremental ECO flow assembles Chip/Router/Global/Assignment/Detail
// itself and then calls Finalize). total is the flow wall time recorded
// in Metrics.Runtime.
func (res *Result) Finalize(ctx context.Context, total time.Duration) {
	if ctx == nil {
		ctx = context.Background()
	}
	res.finish(ctx, res.Chip, res.Router, total)
}

// finish computes metrics shared by both flows and runs the final DRC
// audit under a "stage.audit" span.
func (res *Result) finish(ctx context.Context, c *chip.Chip, r *detail.Router, total time.Duration) {
	res.PerNet = make([]report.NetLength, len(c.Nets))
	var totalLen int64
	vias := 0
	unrouted := 0
	for ni := range c.Nets {
		st := r.NetStats(ni)
		res.PerNet[ni] = report.NetLength{Length: st.Length, Vias: st.Vias, Routed: st.Routed}
		if st.Routed {
			totalLen += st.Length
			vias += st.Vias
		} else {
			unrouted++
		}
	}
	aSpan := obs.SpanFrom(ctx).Child("stage.audit")
	res.Audit = auditRouter(r)
	aSpan.End(obs.Int("errors", res.Audit.Errors()))
	res.FastGridHitRate = r.FastGridHitRate()

	baselines := report.SteinerBaselines(c)
	s25, s50 := report.Scenic(res.PerNet, baselines)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.Metrics = report.Metrics{
		Name:      res.Flow,
		Nets:      len(c.Nets),
		Runtime:   total,
		RuntimeBR: res.DetailTime,
		Netlength: totalLen,
		Vias:      vias,
		Scenic25:  s25,
		Scenic50:  s50,
		Errors:    res.Audit.Errors(),
		Unrouted:  unrouted,
	}
}

// auditRouter runs the full-chip audit with each routed net's pins.
func auditRouter(r *detail.Router) drc.AuditResult {
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
	return r.Space.Audit(c.Area, netPins)
}

// Cleanup is the external-DRC-cleanup stand-in (§5.2): nets owning
// shapes in diff-net violations are ripped and rerouted, up to `passes`
// times. ctx cancellation is honoured between nets; one "cleanup.pass"
// event per pass goes to the span carried by ctx.
func Cleanup(ctx context.Context, r *detail.Router, passes int) int {
	if ctx == nil {
		ctx = context.Background()
	}
	span := obs.SpanFrom(ctx)
	fixed := 0
	for pass := 0; pass < passes; pass++ {
		if ctx.Err() != nil {
			break
		}
		bad := violatingNets(r)
		if len(bad) == 0 {
			break
		}
		passFixed := 0
		for _, ni := range bad {
			if ctx.Err() != nil {
				break
			}
			r.Unroute(ni)
			if r.RouteNet(ni, 1) {
				passFixed++
			}
		}
		fixed += passFixed
		span.Event("cleanup.pass", obs.Int("pass", pass),
			obs.Int("violating_nets", len(bad)), obs.Int("fixed", passFixed))
	}
	return fixed
}

// violatingNets lists routed nets involved in diff-net violations.
func violatingNets(r *detail.Router) []int {
	c := r.Chip
	pairs := r.Space.ViolatingNetPairs(c.Area)
	seen := map[int]bool{}
	var out []int
	for _, p := range pairs {
		for _, ni := range p {
			if ni >= 0 && !seen[int(ni)] {
				seen[int(ni)] = true
				out = append(out, int(ni))
			}
		}
	}
	return out
}
