// Command bench is the router's one benchmark: four workloads (bulk,
// parallel, many small chips, ECO over HTTP), end-to-end metrics from
// an untraced run through the public entry points, and per-layer
// metrics from a separate traced run that replays the flow stage by
// stage. README.md is the manual; BENCHMARK.json the contract.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload in this process (default: run the whole suite, one child process per run)")
		seed         = flag.Int64("seed", 1, "derives every chip seed and delta seed")
		seconds      = flag.Int("seconds", defaultSeconds, "sizes the work of a run: about this many seconds on the reference host")
		trace        = flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced run (end-to-end metrics)")
		jsonOut      = flag.String("json", "", "suite mode: also write all results to this file")
		selfcheck    = flag.Bool("selfcheck", false, "apply the contract's acceptance rule to this build: two passes over all workloads, spreads and drifts against the bounds in BENCHMARK.json")
		seeds        = flag.Int("seeds", 10, "selfcheck: untraced seeds per workload and pass (below 4 only the drift between the passes is checked)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}

	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		os.Exit(runSingle(w, *seed, *seconds, *trace != 0))
	}
	if *selfcheck {
		os.Exit(runSelfcheck(*seconds, *seeds))
	}
	os.Exit(runSuite(*seed, *seconds, *jsonOut))
}

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 24

// runSingle runs one (workload, traced|untraced) pair in this process
// and prints the per-metric table, an "#info" line and, last, the
// result line of the benchmark contract.
func runSingle(w *workload, seed int64, seconds int, traced bool) int {
	sz := w.sizeFor(seconds)
	fmt.Printf("workload %s seed %d seconds %d traced %v: %d chips × ~%d nets, workers %d\n",
		w.name, seed, seconds, traced, sz.chips, sz.nets, w.numWorkers())
	fmt.Printf("env nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	var m *metrics
	var o ops
	var info runInfo
	switch {
	case traced:
		m, o, info = runTraced(w, seed, sz, spansPath(w.name))
	case w.eco:
		m, o, info = runEco(w, seed, sz)
	default:
		m, o, info = runBulk(w, seed, sz)
	}

	info.Failures = o.failures
	res := runResult{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: m.wire()}
	printTable("metrics:", m.defs, res.Metrics)
	fmt.Printf("ops attempted %d failed %d\n", o.attempted, o.failed)
	for _, f := range info.Failures {
		fmt.Printf("FAILED %s\n", f)
	}
	for _, f := range info.Findings {
		fmt.Printf("verifier finding: %s\n", f)
	}
	fmt.Printf("#info %s\n", mustJSON(info))
	fmt.Println(mustJSON(res))
	if !res.Correct {
		return 1
	}
	return 0
}

// spansPath is where a traced run writes its spans, relative to the
// working directory (the benchmark's own directory under go run -C).
func spansPath(workload string) string { return "out/" + workload + ".spans.jsonl" }
