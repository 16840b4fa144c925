package main

import (
	"context"
	"time"

	"bonnroute/internal/capest"
	"bonnroute/internal/chip"
	"bonnroute/internal/core"
	"bonnroute/internal/detail"
	"bonnroute/internal/grid"
	"bonnroute/internal/sharing"
)

// The façade's defaults, spelled out: the ledger must configure every
// stage exactly as core.RouteBonnRoute does with zero Options, or its
// result would not reproduce the façade's.
const (
	tileTracks    = 8
	globalPhases  = 32
	cleanupPasses = 2
)

// stageTimes is the ledger of one chip: the bench-owned span around
// each stage of the flow.
type stageTimes struct {
	detailNew, capest, sharing, detailRoute, cleanup, finalize, total time.Duration
}

func (s stageTimes) attributed() time.Duration {
	return s.detailNew + s.capest + s.sharing + s.detailRoute + s.cleanup + s.finalize
}

// ledgerRun is what replaying one chip stage by stage leaves behind:
// the finished Result, the stage times, and the intermediate values the
// returned-statistics metrics and the kernel probes read.
type ledgerRun struct {
	res    *core.Result
	stages stageTimes
	global *sharing.Result
	graph  *grid.Graph
	specs  []sharing.NetSpec
}

// runLedger replays core.RouteBonnRoute through the exported per-stage
// calls, in the façade's order and with its defaults, with one span
// per stage under a "flow.ledger" root. Everything between the spans is
// bookkeeping the façade does too; its cost shows as unattributed time.
func runLedger(rec *recorder, op int, c *chip.Chip, seed int64, workers int) *ledgerRun {
	ctx := context.Background()
	lr := &ledgerRun{}
	st := &lr.stages
	root := rec.begin("flow.ledger", -1, op)
	res := &core.Result{Flow: "BR+cleanup", Chip: c}

	var r *detail.Router
	st.detailNew = rec.time("detail.new", root, op, func() {
		r = detail.New(c, detail.Options{Workers: workers})
	})
	res.Router = r

	var g *grid.Graph
	st.capest = rec.time("capest.compute", root, op, func() {
		g = core.BuildGlobalGraph(c, tileTracks)
		capest.Compute(c, r.TG, g, capest.Params{})
		capest.ReduceForIntraTile(c, g)
	})

	st.sharing = rec.time("sharing.run", root, op, func() {
		specs := core.NetSpecs(c, g)
		solver := sharing.New(g, specs, sharing.Options{Phases: globalPhases, Workers: workers, Seed: seed})
		sres := solver.Run(ctx)
		trees := make([][]int32, len(c.Nets))
		extras := make([][]float32, len(c.Nets))
		widths := make([]float64, len(c.Nets))
		for ni := range sres.Nets {
			nr := &sres.Nets[ni]
			trees[ni] = nr.Tree()
			if nr.Chosen >= 0 && nr.Chosen < len(nr.Candidates) {
				extras[ni] = nr.Candidates[nr.Chosen].Extra
			}
			widths[ni] = specs[ni].Width
		}
		res.Assignment = &core.GlobalAssignment{
			Graph: g, Trees: trees, Extras: extras, Widths: widths, Loads: solver.EdgeLoads(sres),
		}
		res.Global = &core.GlobalStats{Lambda: sres.LambdaFrac, Unrouted: sres.Unrouted}
		for e, l := range res.Assignment.Loads {
			if l > g.Cap[e]+1e-9 {
				res.Global.Overflowed++
			}
		}
		r.SetGlobalCorridors(g, trees)
		lr.global, lr.graph, lr.specs = sres, g, specs
	})

	st.detailRoute = rec.time("detail.route", root, op, func() {
		res.Detail = r.Route(ctx)
	})
	res.DetailTime = st.detailRoute

	st.cleanup = rec.time("core.cleanup", root, op, func() {
		res.CleanupFixed = core.Cleanup(ctx, r, cleanupPasses)
	})
	res.CleanupTime = st.cleanup

	st.finalize = rec.time("core.finalize", root, op, func() {
		res.Finalize(ctx, rec.elapsed(root))
	})
	st.total = rec.end(root)
	lr.res = res
	return lr
}
