package main

import (
	"math"
	"runtime"

	"bonnroute/internal/chip"
)

// workload is one set of inputs the benchmark runs. The table below is
// the benchmark's definition: names and rationale are repeated in
// BENCHMARK.json and README.md.
type workload struct {
	name string
	why  string
	// stream separates the workloads' chip seeds: no two workloads draw
	// the same chips from one --seed.
	stream int
	// eco marks the service workload; the others route chips in bulk.
	eco bool
	// workers is the routing parallelism of the workload; 0 marks the
	// parallel workload, which routes with min(2, nproc).
	workers int
	// family builds the generator parameters of one chip.
	family func(seed int64, nets int) chip.GenParams
	// library restricts the chips to one class of cell library (see
	// libraryClass); anyLibrary takes every chip.
	library libraryClass
	// nets is the target net count per chip.
	nets int
	// chipsPerSecond calibrates how many chips (sessions for eco) a run
	// of --seconds routes: the work is fixed by (seed, seconds), never
	// by how fast the program under test happens to be, so both sides
	// of a comparison do identical work and every count repeats exactly.
	// The constants make a run take about --seconds on the reference
	// host at the commit that introduced the benchmark.
	chipsPerSecond float64
	minChips       int
	// itersPerSession is the reroute iterations per eco session.
	itersPerSession int
}

// scaledFamily is the scale-tier generator family (chip.ScaledParams):
// roughly square chips, 10 % wide nets, 10 % critical nets, sparse
// power stripes.
func scaledFamily(seed int64, nets int) chip.GenParams {
	return chip.ScaledParams("bench", seed, nets)
}

// stripedFamily is a wide 16-row chip with a power stripe every 8
// columns and looser locality, filled to capacity: the generator
// places about 0.46 nets per slot, so NumNets asks for more than fit.
func stripedFamily(seed int64, nets int) chip.GenParams {
	cols := int(math.Ceil(float64(nets) / (0.46 * 16)))
	return chip.GenParams{
		Name: "bench", Seed: seed, Rows: 16, Cols: cols, NumNets: 2 * nets,
		NumLayers: 6, LocalityRadius: 12, PowerStripePeriod: 8,
	}
}

var workloads = []workload{
	{
		name: "bulk_scaled", stream: 1,
		why:     "mid-size scale-tier chips on tight cell libraries, one worker: every stage alive, the only bulk workload where DRC cleanup and the final audit do real work",
		workers: 1, family: scaledFamily, library: tightLibrary, nets: 120,
		chipsPerSecond: 0.5, minChips: 2,
	},
	{
		name: "bulk_par", stream: 2,
		why:     "striped wide chips on clean cell libraries, two workers: cleanup is idle, global and detailed routing weigh most and the parallel code paths run; bypasses cleanup optimisations",
		workers: 0, family: stripedFamily, library: cleanLibrary, nets: 120,
		chipsPerSecond: 0.58, minChips: 2,
	},
	{
		name: "small_chips", stream: 3,
		why:     "many 30-net chips back to back, any cell library: per-chip preparation (catalogues, blockgrid, fast-grid sweep) is not amortised, so prep work and cross-chip reuse must show here",
		workers: 1, family: scaledFamily, library: anyLibrary, nets: 30,
		chipsPerSecond: 1.5, minChips: 4,
	},
	{
		name: "eco_service", stream: 4,
		why: "closed-loop ECO client over loopback HTTP on a fixed portfolio of sessions: replay, restricted global, dirty-set detail and cleanup beside capacity-only assess reads, through JSON, admission and FIFO",
		eco: true, workers: 1, family: scaledFamily, library: tightLibrary, nets: 60,
		chipsPerSecond: 0.21, minChips: 2, itersPerSession: 8,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizing is the amount of work one run does.
type sizing struct {
	chips int // chips routed (bulk) or sessions created (eco)
	nets  int // target nets per chip
	iters int // eco: reroute iterations per session
	// assess is the number of what-if /assess calls per eco iteration.
	assess int
	// setups is how often the set-up is repeated for its median.
	setups int
}

func (w *workload) sizeFor(seconds int) sizing {
	n := int(math.Round(float64(seconds) * w.chipsPerSecond))
	if n < w.minChips {
		n = w.minChips
	}
	return sizing{chips: n, nets: w.nets, iters: w.itersPerSession, assess: 8, setups: 5}
}

// parallel marks the workload whose worker count follows the host.
func (w *workload) parallel() bool { return w.workers == 0 }

func (w *workload) numWorkers() int {
	if w.workers > 0 {
		return w.workers
	}
	return min(2, runtime.NumCPU())
}

// mixSeed derives an independent positive seed from the run seed, a
// stream and an index (splitmix64), so that neighbouring --seed values
// share no chip: seed 2 is held out from seed 1.
func mixSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<32 + uint64(i)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z%1_000_000_007) + 1
}

// libraryClass sorts generated chips by one property of their random
// cell library that decides, on its own, whether DRC cleanup has work.
// The generator jitters every prototype pin by up to a wire width; in
// about two libraries out of three some pin lands within spacing of a
// blockage of its own cell, every instance of that cell then carries a
// diff-net violation no reroute can fix, and the cleanup pass rips and
// reroutes the attached nets in every pass of every flow — a quarter
// of a bulk route, two thirds of an ECO reroute. A workload that drew
// chips blindly would mix two populations whose cost differs by that
// much, and its medians would follow the mix of the draw, not the
// program. The class is read off the chip's geometry alone, so the
// routed program cannot change which chips a workload runs.
type libraryClass int

const (
	anyLibrary libraryClass = iota
	// tightLibrary: some pin sits within 1.25 × spacing of a blockage of
	// its prototype; cleanup has work on every such chip measured.
	tightLibrary
	// cleanLibrary: every pin keeps at least 1.5 × spacing; cleanup
	// finds nothing. Libraries in between are in neither class.
	cleanLibrary
)

// libraryGap is the smallest same-layer gap between a pin shape and a
// blockage within one cell prototype (corner to corner gaps add up).
func libraryGap(c *chip.Chip) int {
	gap := math.MaxInt
	for _, p := range c.Protos {
		for _, b := range p.Blockages {
			for _, pin := range p.Pins {
				for _, s := range pin {
					if s.Layer != b.Layer {
						continue
					}
					dx := max(0, s.Rect.XMin-b.Rect.XMax, b.Rect.XMin-s.Rect.XMax)
					dy := max(0, s.Rect.YMin-b.Rect.YMax, b.Rect.YMin-s.Rect.YMax)
					gap = min(gap, dx+dy)
				}
			}
		}
	}
	return gap
}

func (lc libraryClass) accepts(c *chip.Chip) bool {
	spacing := c.Deck.Layers[0].Spacing[0].Spacing
	switch lc {
	case tightLibrary:
		return 4*libraryGap(c) <= 5*spacing
	case cleanLibrary:
		return 2*libraryGap(c) >= 3*spacing
	}
	return true
}

// chipSeed is the i-th candidate chip seed of a run.
func (w *workload) chipSeed(seed int64, i int) int64 { return mixSeed(seed, w.stream, i) }

// pickChips generates candidate chips in seed order and keeps the
// first n of the workload's library class.
func (w *workload) pickChips(seed int64, n, nets int) (chips []*chip.Chip, seeds []int64) {
	for i := 0; len(chips) < n; i++ {
		cs := w.chipSeed(seed, i)
		if c := chip.Generate(w.family(cs, nets)); w.library.accepts(c) {
			chips = append(chips, c)
			seeds = append(seeds, cs)
		}
	}
	return chips, seeds
}

// warmupParams is a tiny chip routed once per set-up so that the first
// measured chip does not pay for cold code and an empty heap.
func warmupParams() chip.GenParams {
	return chip.GenParams{Name: "warmup", Seed: 1, Rows: 4, Cols: 8, NumNets: 12}
}
