package main

import (
	"context"
	"fmt"
	"time"

	"bonnroute"
	"bonnroute/internal/chip"
	"bonnroute/internal/report"
	"bonnroute/internal/verify"
)

// quality accumulates the deterministic outcome of routed chips.
type quality struct {
	nets, routed, pins int
	// length and baseline cover the routed nets only: an unrouted net
	// must not read as short wiring.
	length, baseline int64
	vias, errors     int
}

// add folds in one routed chip: perNet(ni) reports whether net ni is
// routed and its wire length.
func (q *quality) add(c *chip.Chip, errors, vias int, perNet func(ni int) (bool, int64)) {
	base := report.SteinerBaselines(c)
	q.nets += len(c.Nets)
	q.pins += len(c.Pins)
	q.errors += errors
	q.vias += vias
	for ni := range c.Nets {
		if ok, l := perNet(ni); ok {
			q.routed++
			q.length += l
			q.baseline += base[ni]
		}
	}
}

func (q *quality) addResult(res *bonnroute.Result) {
	q.add(res.Chip, res.Metrics.Errors, res.Metrics.Vias, func(ni int) (bool, int64) {
		return res.PerNet[ni].Routed, res.PerNet[ni].Length
	})
}

// emit writes the four quality metrics every workload shares. They are
// normalised by sizes the routed program cannot influence (Steiner
// baselines, net and pin counts), so that they compare across seeds.
func (q *quality) emit(m *metrics) {
	m.set("wirelength_ratio", ratio(float64(q.length), float64(q.baseline)))
	m.set("vias_per_net", ratio(float64(q.vias), float64(q.routed)))
	m.set("drc_clean_share", 1-ratio(float64(q.errors), float64(q.pins)))
	m.set("routed_share", ratio(float64(q.routed), float64(q.nets)))
}

// counts lists the exact totals the quality metrics are made of.
func (q *quality) counts() map[string]int64 {
	return map[string]int64{
		"nets": int64(q.nets), "routed_nets": int64(q.routed), "pins": int64(q.pins),
		"wirelength_dbu": q.length, "steiner_baseline_dbu": q.baseline,
		"vias": int64(q.vias), "drc_errors": int64(q.errors),
	}
}

// ops counts operations attempted and failed, with the first reasons.
type ops struct {
	attempted, failed int
	failures          []string
}

func (o *ops) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// findings tallies what the verifier reported over the gated chips.
type findings struct {
	chips, count int
	first        []string
}

// gate is the correctness check of one routed Result, run outside the
// timed sections. A Result that did not finish or does not account for
// every net is an error. The independent verifier's findings are
// tallied, not judged here: the commit that introduced the benchmark
// already has isolated ones (see findingsLimit), so a single finding
// cannot fail a chip, while a run full of them fails as a whole.
func (f *findings) gate(res *bonnroute.Result, c *chip.Chip, seed int64) error {
	if res == nil || res.Cancelled {
		return fmt.Errorf("route did not finish")
	}
	if res.Metrics.Nets != len(c.Nets) || len(res.PerNet) != len(c.Nets) {
		return fmt.Errorf("result covers %d nets, chip has %d", res.Metrics.Nets, len(c.Nets))
	}
	rep := verify.Run(res, verify.Options{
		SpacingSampleCap:  spacingSampleCap,
		SpacingSampleSeed: seed,
	})
	f.chips++
	f.count += len(rep.Violations)
	for _, v := range rep.Violations {
		if len(f.first) < 8 {
			f.first = append(f.first, fmt.Sprintf("chip seed %d: %s", seed, v))
		}
	}
	return nil
}

// findingsLimit is how many verifier findings a run over n chips may
// collect before it counts as incorrect. At the commit that introduced
// the benchmark about one chip in twenty-five has a single conservation
// finding (an access stub committed beyond the chip's right edge, which
// the shape grid drops) and about one in three hundred a connectivity
// finding (the audit counts an open the verifier's union-find does not
// see); a benchmark that fails on its own baseline measures nothing. A
// broken bookkeeping or legality path shows as findings on most chips.
func findingsLimit(n int) int { return max(2, n/2) }

// check fails the run as one operation when its chips collected more
// verifier findings than findingsLimit allows.
func (f *findings) check(o *ops) {
	o.attempted++
	if f.count > findingsLimit(f.chips) {
		o.fail("verifier: %d findings over %d chips, first: %s", f.count, f.chips, f.first[0])
	}
}

// spacingSampleCap bounds the verifier's quadratic spacing pass per
// plane; the chips of every workload stay below it, so the pass is
// exhaustive here and the cap only protects a mis-sized run.
const spacingSampleCap = 20000

// guarded runs fn and turns a panic of the routed program into an error
// of the one operation, so that the run still reports.
func guarded(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	fn()
	return nil
}

// routeChip is the façade call every bulk number is measured around.
func routeChip(c *chip.Chip, seed int64, workers int) (res *bonnroute.Result, dt time.Duration, err error) {
	err = guarded(func() {
		t0 := time.Now()
		res = bonnroute.Route(context.Background(), c,
			bonnroute.WithSeed(seed), bonnroute.WithWorkers(workers))
		dt = time.Since(t0)
	})
	return res, dt, err
}

// bulkSetup generates the run's chips and routes the warm-up chip. It
// is repeated sz.setups times; every repetition's wall time is a
// set-up sample.
func bulkSetup(w *workload, seed int64, sz sizing) (chips []*chip.Chip, seeds []int64, samples []float64) {
	for rep := 0; rep < max(1, sz.setups); rep++ {
		t0 := time.Now()
		chips, seeds = w.pickChips(seed, sz.chips, sz.nets)
		bonnroute.Route(context.Background(), chip.Generate(warmupParams()),
			bonnroute.WithSeed(1), bonnroute.WithWorkers(w.numWorkers()))
		samples = append(samples, time.Since(t0).Seconds())
	}
	return chips, seeds, samples
}

// runBulk is the untraced run of a bulk workload: route every chip once
// through the façade, time each Route, check each Result.
func runBulk(w *workload, seed int64, sz sizing) (*metrics, ops, runInfo) {
	m := newMetrics(endToEnd)
	var o ops
	var q quality
	chips, seeds, setup := bulkSetup(w, seed, sz)

	var routeS, rssMB []float64
	var found findings
	var netsRouted int
	for i, c := range chips {
		o.attempted++
		chips[i] = nil
		beginOpMemory()
		res, dt, err := routeChip(c, seeds[i], w.numWorkers())
		opRSS := peakRSSMB()
		if err == nil {
			err = found.gate(res, c, seeds[i])
		}
		if err != nil {
			o.fail("chip %d (seed %d): %v", i, seeds[i], err)
			continue
		}
		routeS = append(routeS, dt.Seconds())
		rssMB = append(rssMB, opRSS)
		netsRouted += len(c.Nets)
		q.addResult(res)
	}

	found.check(&o)

	m.set("setup_s", median(setup))
	m.set("op_p50_ms", 1000*median(routeS))
	m.set("throughput_per_s", ratio(float64(netsRouted), sum(routeS)))
	m.set("peak_rss_mb", median(rssMB))
	q.emit(m)
	return m, o, runInfo{
		Samples:  map[string]int{"setup_s": len(setup), "op_p50_ms": len(routeS)},
		Counts:   q.counts(),
		Findings: found.first,
	}
}
