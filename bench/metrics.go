package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metricDef declares one metric the benchmark emits. The two lists
// below are the single declaration; BENCHMARK.json repeats them (a test
// keeps the two in step) and every run emits exactly one of the lists.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of the router sees. Every workload emits all
// of them in an untraced run; what "operation" and "work unit" mean per
// workload is defined in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"wirelength_ratio", "ratio"},
	{"vias_per_net", "count"},
	{"drc_clean_share", "ratio"},
	{"routed_share", "ratio"},
}

// perLayer is what the traced run emits. A metric that does not apply
// to a workload (the ECO block on a bulk workload, the parallel block
// off bulk_par) reads 0 there.
var perLayer = []metricDef{
	// Stage ledger: mean seconds per chip over the ledger chips.
	{"chip.generate_s", "s"},
	{"flow.route_s", "s"},
	{"flow.ledger_s", "s"},
	{"detail.new_s", "s"},
	{"capest.compute_s", "s"},
	{"sharing.run_s", "s"},
	{"detail.route_s", "s"},
	{"core.cleanup_s", "s"},
	{"core.finalize_s", "s"},
	{"flow.unattributed_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	// Statistics the stages return: times are mean seconds per chip,
	// counts are totals over the ledger chips.
	{"sharing.alg_s", "s"},
	{"sharing.repair_s", "s"},
	{"sharing.lambda", "ratio"},
	{"sharing.rounding_violations", "count"},
	{"sharing.oracle_reuse_ratio", "ratio"},
	{"steiner.exact_s", "s"},
	{"steiner.pc_s", "s"},
	{"steiner.exact_calls", "count"},
	{"steiner.pc_calls", "count"},
	{"steiner.exact_us_per_call", "us"},
	{"detail.rounds", "count"},
	{"detail.ripups", "count"},
	{"pathsearch.searches", "count"},
	{"pathsearch.heap_pops", "count"},
	{"pathsearch.labels", "count"},
	{"pathsearch.pi_reuse_ratio", "ratio"},
	{"detail.us_per_search", "us"},
	{"fastgrid.hit_rate", "ratio"},
	{"pinaccess.catalogues", "count"},
	{"pinaccess.catalogue_s", "s"},
	{"pinaccess.bb_nodes", "count"},
	{"pinaccess.dynamic_ratio", "ratio"},
	{"core.cleanup_fixed", "count"},
	{"flow.unrouted_nets", "count"},
	{"flow.op_tail_ms", "ms"},
	{"verify.findings", "count"},
	// Kernel probes on the workload's first chip.
	{"drc.space_build_s", "s"},
	{"fastgrid.new_s", "s"},
	{"pinaccess.build_ms_per_class", "ms"},
	{"blockgrid.search_us", "us"},
	{"detail.new_other_s", "s"},
	{"steiner.pc_us_per_net", "us"},
	{"steiner.exact_us_per_net", "us"},
	{"drc.violating_pairs_s", "s"},
	{"detail.reroute_net_ms", "ms"},
	{"drc.audit_s", "s"},
	{"detail.replay_net_us", "us"},
	{"verify.run_s", "s"},
	// Parallel: Workers=1 time over Workers=2 time, bulk_par only.
	{"sharing.par_speedup", "ratio"},
	{"detail.par_speedup", "ratio"},
	{"flow.par_speedup", "ratio"},
	// ECO and service, eco_service only.
	{"incremental.apply_ms", "ms"},
	{"incremental.prep_ms", "ms"},
	{"incremental.dirty_ms", "ms"},
	{"incremental.replay_ms", "ms"},
	{"incremental.global_ms", "ms"},
	{"incremental.detail_ms", "ms"},
	{"incremental.cleanup_ms", "ms"},
	{"incremental.dirty_fraction", "ratio"},
	{"incremental.fellback_ratio", "ratio"},
	{"service.overhead_ms", "ms"},
	{"service.reroute_p50_ms", "ms"},
	{"service.assess_p50_ms", "ms"},
	{"service.assess_p95_ms", "ms"},
	{"service.result_get_ms", "ms"},
	{"service.http_429", "count"},
	// Go runtime over the whole traced run.
	{"runtime.alloc_mb_per_knet", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_live_mb", "MB"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects the values of one run against one declared list.
type metrics struct {
	defs []metricDef
	vals map[string]float64
}

func newMetrics(defs []metricDef) *metrics {
	return &metrics{defs: defs, vals: map[string]float64{}}
}

// set records a value; the name must be declared.
func (m *metrics) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = v
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// unset lists the declared metrics the run never recorded: the ones
// that do not apply to its workload.
func (m *metrics) unset() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.vals[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// wire renders every declared metric (0 where nothing was recorded).
func (m *metrics) wire() map[string]value {
	out := make(map[string]value, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = value{Value: m.vals[d.Name], Unit: d.Unit}
	}
	return out
}

// runResult is the last line a single run prints, in the schema of the
// benchmark contract.
type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runInfo is what a single run knows beyond the contract line: sample
// counts and the first few failure reasons. The suite runner reads it
// from the "#info" line printed before the result.
type runInfo struct {
	Samples map[string]int `json:"samples"`
	// Counts are the exact totals behind the quality metrics of an
	// untraced run; they repeat exactly for one seed.
	Counts   map[string]int64 `json:"counts,omitempty"`
	Failures []string         `json:"failures,omitempty"`
	// Findings are the first verifier findings; they fail a run only
	// beyond findingsLimit.
	Findings []string `json:"findings,omitempty"`
}

func printTable(title string, defs []metricDef, vals map[string]value) {
	fmt.Println(title)
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-32s %16.6g %s\n", d.Name, v.Value, v.Unit)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
