package main

import (
	"fmt"
	"runtime"
	"time"

	"bonnroute"
	"bonnroute/internal/chip"
	"bonnroute/internal/pathsearch"
)

// layerStats accumulates the stage ledger and the statistics the stages
// return over the chips of a traced run.
type layerStats struct {
	chips, nets int
	generate    time.Duration
	facade      time.Duration
	stages      stageTimes

	alg, repair, exactT, pcT                       time.Duration
	lambda, hitRate                                float64
	roundingViolations                             int
	oracleCalls, oracleReuses, exactCalls, pcCalls int64
	rounds, ripups                                 int
	search                                         pathsearch.Stats
	catalogues, bbNodes, reserved, dynamic         int
	catalogueT                                     time.Duration
	cleanupFixed, unrouted                         int
}

func (ls *layerStats) add(lr *ledgerRun, facade time.Duration) {
	ls.chips++
	ls.nets += len(lr.res.Chip.Nets)
	ls.facade += facade
	st, s := &ls.stages, lr.stages
	st.detailNew += s.detailNew
	st.capest += s.capest
	st.sharing += s.sharing
	st.detailRoute += s.detailRoute
	st.cleanup += s.cleanup
	st.finalize += s.finalize
	st.total += s.total

	g := lr.global
	ls.alg += g.AlgTime
	ls.repair += g.RepairTime
	ls.exactT += g.ExactOracleTime
	ls.pcT += g.PCOracleTime
	ls.lambda += g.LambdaFrac
	ls.roundingViolations += g.RoundingViolations
	ls.oracleCalls += g.OracleCalls
	ls.oracleReuses += g.OracleReuses
	ls.exactCalls += g.ExactCalls
	ls.pcCalls += g.PCCalls

	d := lr.res.Detail
	ls.rounds += d.Rounds
	ls.ripups += d.RipupEvents
	ls.search.Add(d.SearchStats)
	ls.hitRate += lr.res.FastGridHitRate

	as := lr.res.Router.AccessStats()
	ls.catalogues += as.Catalogues
	ls.bbNodes += as.BBNodes
	ls.reserved += as.Reserved
	ls.dynamic += as.Dynamic
	ls.catalogueT += as.CatalogueTime
	ls.cleanupFixed += lr.res.CleanupFixed
	ls.unrouted += lr.res.Metrics.Unrouted
}

// emit writes the ledger and returned-statistics metrics: times as mean
// seconds per chip (so that they add up to flow.ledger_s), counts as
// totals over the ledger chips.
func (ls *layerStats) emit(m *metrics) {
	n := float64(ls.chips)
	perChip := func(d time.Duration) float64 { return ratio(sec(d), n) }
	st := ls.stages
	m.set("chip.generate_s", perChip(ls.generate))
	m.set("flow.route_s", perChip(ls.facade))
	m.set("flow.ledger_s", perChip(st.total))
	m.set("detail.new_s", perChip(st.detailNew))
	m.set("capest.compute_s", perChip(st.capest))
	m.set("sharing.run_s", perChip(st.sharing))
	m.set("detail.route_s", perChip(st.detailRoute))
	m.set("core.cleanup_s", perChip(st.cleanup))
	m.set("core.finalize_s", perChip(st.finalize))
	m.set("flow.unattributed_pct", 100*ratio(sec(ls.facade-st.attributed()), sec(ls.facade)))
	m.set("bench.trace_overhead_pct", 100*ratio(sec(st.total-ls.facade), sec(ls.facade)))

	m.set("sharing.alg_s", perChip(ls.alg))
	m.set("sharing.repair_s", perChip(ls.repair))
	m.set("sharing.lambda", ratio(ls.lambda, n))
	m.set("sharing.rounding_violations", float64(ls.roundingViolations))
	m.set("sharing.oracle_reuse_ratio", ratio(float64(ls.oracleReuses), float64(ls.oracleCalls+ls.oracleReuses)))
	m.set("steiner.exact_s", perChip(ls.exactT))
	m.set("steiner.pc_s", perChip(ls.pcT))
	m.set("steiner.exact_calls", float64(ls.exactCalls))
	m.set("steiner.pc_calls", float64(ls.pcCalls))
	m.set("steiner.exact_us_per_call", ratio(us(ls.exactT), float64(ls.exactCalls)))
	m.set("detail.rounds", float64(ls.rounds))
	m.set("detail.ripups", float64(ls.ripups))
	m.set("pathsearch.searches", float64(ls.search.Searches))
	m.set("pathsearch.heap_pops", float64(ls.search.HeapPops))
	m.set("pathsearch.labels", float64(ls.search.Labels))
	m.set("pathsearch.pi_reuse_ratio", ratio(float64(ls.search.PiReused), float64(ls.search.Searches)))
	m.set("detail.us_per_search", ratio(us(st.detailRoute), float64(ls.search.Searches)))
	m.set("fastgrid.hit_rate", ratio(ls.hitRate, n))
	m.set("pinaccess.catalogues", float64(ls.catalogues))
	m.set("pinaccess.catalogue_s", perChip(ls.catalogueT))
	m.set("pinaccess.bb_nodes", float64(ls.bbNodes))
	m.set("pinaccess.dynamic_ratio", ratio(float64(ls.dynamic), float64(ls.reserved+ls.dynamic)))
	m.set("core.cleanup_fixed", float64(ls.cleanupFixed))
	m.set("flow.unrouted_nets", float64(ls.unrouted))
}

// outcome is the part of a Result that must repeat exactly between the
// façade and the stage-by-stage replay.
type outcome struct {
	nets, unrouted, vias, errors int
	length                       int64
}

func outcomeOf(m bonnroute.Metrics) outcome {
	return outcome{m.Nets, m.Unrouted, m.Vias, m.Errors, m.Netlength}
}

func outcomeOfSummary(s bonnroute.ResultSummary) outcome {
	return outcome{s.Nets, s.Unrouted, s.Vias, s.Errors, s.Netlength}
}

// tracedRun is the state of one traced run.
type tracedRun struct {
	w     *workload
	seed  int64
	rec   *recorder
	m     *metrics
	o     ops
	ls    layerStats
	opMS  []float64
	found findings
}

// ledger replays one chip stage by stage, from the same heap state an
// operation of the untraced run starts in. A panic fails the operation
// and returns nil.
func (t *tracedRun) ledger(op int, c *chip.Chip, cs int64) *ledgerRun {
	t.o.attempted++
	var lr *ledgerRun
	beginOpMemory()
	if err := guarded(func() { lr = runLedger(t.rec, op, c, cs, t.w.numWorkers()) }); err != nil {
		t.o.fail("ledger chip %d (seed %d): %v", op, cs, err)
		return nil
	}
	return lr
}

// checkLedger requires the replay to reproduce the façade's outcome,
// gates the replayed Result through the verifier, folds it into the
// layer statistics and — on the run's first chip — runs the kernel
// probes and, on the parallel workload, the one-worker ledger the
// speed-ups compare to.
func (t *tracedRun) checkLedger(op int, c *chip.Chip, cs int64, lr *ledgerRun, want outcome, facade time.Duration) {
	if lr == nil {
		return
	}
	if got := outcomeOf(lr.res.Metrics); got != want {
		t.o.fail("ledger chip %d (seed %d): replay %+v differs from the façade's %+v", op, cs, got, want)
		return
	}
	var gerr error
	verifyT := t.rec.time("verify.run", -1, op, func() { gerr = t.found.gate(lr.res, c, cs) })
	if gerr != nil {
		t.o.fail("ledger chip %d (seed %d): %v", op, cs, gerr)
		return
	}
	t.ls.add(lr, facade)
	t.opMS = append(t.opMS, ms(facade))
	if op != 0 {
		return
	}

	t.m.set("verify.run_s", sec(verifyT))
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	t.m.set("runtime.heap_live_mb", float64(mem.HeapAlloc)/1e6)
	workers := t.w.numWorkers()
	if t.w.parallel() && workers > 1 {
		var one *ledgerRun
		if err := guarded(func() { one = runLedger(t.rec, -1, c, cs, 1) }); err != nil {
			t.o.fail("one-worker ledger (seed %d): %v", cs, err)
		} else if outcomeOf(one.res.Metrics) != want {
			t.o.fail("one-worker ledger (seed %d): outcome depends on the worker count", cs)
		} else {
			t.m.set("sharing.par_speedup", ratio(sec(one.stages.sharing), sec(lr.stages.sharing)))
			t.m.set("detail.par_speedup", ratio(sec(one.stages.detailRoute), sec(lr.stages.detailRoute)))
			t.m.set("flow.par_speedup", ratio(sec(one.stages.total), sec(lr.stages.total)))
		}
	}
	if err := guarded(func() { runProbes(t.rec, t.m, c, lr, cs, workers) }); err != nil {
		t.o.fail("probes (seed %d): %v", cs, err)
	}
}

// runTraced is the traced run of any workload. It covers half the chips
// (sessions) of the untraced run, each twice — once through the façade
// and once through the ledger — so that it takes about as long.
func runTraced(w *workload, seed int64, sz sizing, spans string) (*metrics, ops, runInfo) {
	t := &tracedRun{w: w, seed: seed, rec: newRecorder(), m: newMetrics(perLayer)}
	sz.chips = max(1, sz.chips/2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	if w.eco {
		t.eco(sz)
	} else {
		t.bulk(sz)
	}

	runtime.ReadMemStats(&after)
	t.found.check(&t.o)
	t.ls.emit(t.m)
	t.m.set("verify.findings", float64(t.found.count))
	t.m.set("flow.op_tail_ms", percentile(t.opMS, float64(tailPercentile(len(t.opMS)))))
	t.m.set("runtime.alloc_mb_per_knet", ratio(float64(after.TotalAlloc-before.TotalAlloc)/1e6, float64(t.ls.nets)/1000))
	t.m.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	if err := t.rec.writeJSONL(spans); err != nil {
		t.o.attempted++
		t.o.fail("writing spans: %v", err)
	}
	printSelfTimes(t.rec)
	return t.m, t.o, runInfo{
		Samples:  map[string]int{"ledger_chips": t.ls.chips, "nets": t.ls.nets, "spans": len(t.rec.spans)},
		Findings: t.found.first,
	}
}

// bulk routes each chip through the façade and through the ledger. The
// second route of a chip finds caches warm, so the order alternates
// from chip to chip and the bias cancels in the sums.
func (t *tracedRun) bulk(sz sizing) {
	w := t.w
	var chips []*chip.Chip
	var seeds []int64
	t.ls.generate = t.rec.time("chip.generate", -1, -1, func() { chips, seeds = w.pickChips(t.seed, sz.chips, sz.nets) })
	for i, c := range chips {
		cs := seeds[i]
		var lr *ledgerRun
		if i%2 == 1 {
			lr = t.ledger(i, c, cs)
		}
		t.o.attempted++
		beginOpMemory()
		id := t.rec.begin("flow.route", -1, i)
		res, dt, err := routeChip(c, cs, w.numWorkers())
		t.rec.end(id)
		if err != nil || res.Cancelled {
			t.o.fail("chip %d (seed %d): façade route: %v", i, cs, err)
			continue
		}
		if i%2 == 0 {
			lr = t.ledger(i, c, cs)
		}
		t.checkLedger(i, c, cs, lr, outcomeOf(res.Metrics), dt)
	}
}

// eco runs the HTTP stream with a direct-Session mirror per session,
// then the ledger on every session's chip, then the ECO block.
func (t *tracedRun) eco(sz sizing) {
	es := runEcoStream(t.w, t.seed, sz, &t.o, t.rec)
	for _, s := range es.sessions {
		var c *chip.Chip
		t.ls.generate += t.rec.time("chip.generate", -1, s.index, func() { c = chip.Generate(s.params) })
		t.checkLedger(s.index, c, s.seed, t.ledger(s.index, c, s.seed), outcomeOfSummary(s.initial), s.facade)

		// The mirror followed the daemon reply by reply; its final
		// Result is the one the verifier can see.
		t.o.attempted++
		final := s.direct.Result()
		if err := t.found.gate(final, final.Chip, s.seed); err != nil {
			t.o.fail("session %s: final ECO result: %v", s.name, err)
		}
	}

	m := t.m
	stat := func(name string, pick func(e *bonnroute.EcoStats) time.Duration) {
		var xs []float64
		for i := range es.eco {
			xs = append(xs, ms(pick(&es.eco[i])))
		}
		m.set(name, median(xs))
	}
	stat("incremental.apply_ms", func(e *bonnroute.EcoStats) time.Duration { return e.ApplyTime })
	stat("incremental.prep_ms", func(e *bonnroute.EcoStats) time.Duration { return e.PrepTime })
	stat("incremental.dirty_ms", func(e *bonnroute.EcoStats) time.Duration { return e.DirtyTime })
	stat("incremental.replay_ms", func(e *bonnroute.EcoStats) time.Duration { return e.ReplayTime })
	stat("incremental.global_ms", func(e *bonnroute.EcoStats) time.Duration { return e.GlobalTime })
	stat("incremental.detail_ms", func(e *bonnroute.EcoStats) time.Duration { return e.DetailTime })
	stat("incremental.cleanup_ms", func(e *bonnroute.EcoStats) time.Duration { return e.CleanupTime })
	var dirty []float64
	fellBack := 0
	for i := range es.eco {
		dirty = append(dirty, es.eco[i].DirtyFraction)
		if es.eco[i].FellBack {
			fellBack++
		}
	}
	m.set("incremental.dirty_fraction", median(dirty))
	m.set("incremental.fellback_ratio", ratio(float64(fellBack), float64(len(es.eco))))
	m.set("service.reroute_p50_ms", median(es.rerouteMS))
	m.set("service.overhead_ms", median(es.rerouteMS)-median(es.directMS))
	m.set("service.assess_p50_ms", median(es.assessMS))
	m.set("service.assess_p95_ms", percentile(es.assessMS, 95))
	m.set("service.result_get_ms", median(es.resultMS))
	m.set("service.http_429", float64(es.cl.n429))
	t.opMS = es.rerouteMS
}

// printSelfTimes prints the per-layer table the spans give: total self
// time per span name.
func printSelfTimes(rec *recorder) {
	self := rec.selfTimes()
	fmt.Println("span self time:")
	for _, name := range sortedKeys(self) {
		fmt.Printf("  %-32s %12.4f s\n", name, sec(self[name]))
	}
}
