package main

import (
	"math"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// toy is the smallest sizing that still exercises every code path of a
// workload: two chips (one in the traced run), a handful of nets, one
// ECO iteration per session with two assessments.
var toy = sizing{chips: 2, nets: 16, iters: 1, assess: 2, setups: 1}

// notApplicable lists, per workload, the per-layer metrics a traced run
// leaves at 0.
func notApplicable(w *workload) []string {
	var out []string
	for _, d := range perLayer {
		eco := strings.HasPrefix(d.Name, "incremental.") || strings.HasPrefix(d.Name, "service.")
		par := strings.HasSuffix(d.Name, ".par_speedup")
		if (eco && !w.eco) || (par && !w.parallel()) {
			out = append(out, d.Name)
		}
	}
	return out
}

func TestWorkloadsAtToySize(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			var m *metrics
			var o ops
			if w.eco {
				m, o, _ = runEco(w, 1, toy)
			} else {
				m, o, _ = runBulk(w, 1, toy)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("untraced: %d of %d ops failed: %v", o.failed, o.attempted, o.failures)
			}
			if missing := m.unset(); len(missing) != 0 {
				t.Errorf("untraced run never set %v", missing)
			}
			for name, v := range m.wire() {
				if v.Value == 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end metric %s = %v; must be a non-zero number", name, v.Value)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			m, o, info := runTraced(w, 1, toy, spans)
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("traced: %d of %d ops failed: %v", o.failed, o.attempted, o.failures)
			}
			if got, want := m.unset(), notApplicable(w); !reflect.DeepEqual(got, want) {
				t.Errorf("traced run left unset %v, want exactly the not-applicable %v", got, want)
			}
			if info.Samples["spans"] == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

func TestDeclaredMetricsMatchContract(t *testing.T) {
	ct, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, defs []metricDef, declared []contractMetric, bounded bool) {
		if len(defs) != len(declared) {
			t.Errorf("%s: code declares %d metrics, BENCHMARK.json %d", kind, len(defs), len(declared))
			return
		}
		seen := map[string]bool{}
		for i, d := range defs {
			c := declared[i]
			if d.Name != c.Name || d.Unit != c.Unit {
				t.Errorf("%s[%d]: code has %s [%s], BENCHMARK.json %s [%s]", kind, i, d.Name, d.Unit, c.Name, c.Unit)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s: %q [%q] is not a valid name and unit", kind, d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("%s: %s declared twice", kind, d.Name)
			}
			seen[d.Name] = true
			if c.Better != "lower" && c.Better != "higher" {
				t.Errorf("%s: %s has direction %q", kind, c.Name, c.Better)
			}
			if bounded && (c.Bound <= 0 || c.Bound > 0.25) {
				t.Errorf("%s: %s has bound %v, want (0, 0.25]", kind, c.Name, c.Bound)
			}
		}
	}
	check("end_to_end", endToEnd, ct.EndToEnd, true)
	check("per_layer", perLayer, ct.PerLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" {
		t.Error("the first end-to-end metric must be setup_s in s")
	}
	if ct.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", ct.RunSeconds, defaultSeconds)
	}
	if len(ct.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(ct.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if ct.Workloads[i].Name != w.name || ct.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json and code disagree on name or rationale of %s", i, w.name)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: bad name or rationale", w.name)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 50}, {20, 50}, {21, 52}, {28, 64}, {40, 75}, {320, 96}, {1000, 99},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if beyond := float64(c.n) * float64(100-got) / 100; got > 50 && beyond < 10 {
			t.Errorf("tailPercentile(%d) = %d leaves %.1f samples beyond it", c.n, got, beyond)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 7, 4, 3, 9, 2, 8, 6, 5}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root 0..100 with children a 10..40 and b 50..70; a has a child
	// c 20..30. Self time is a span minus its direct children.
	rec := &recorder{spans: []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "c", Start: 20, End: 30},
		{ID: 3, Parent: 0, Name: "b", Start: 50, End: 70},
		{ID: 4, Parent: -1, Name: "root", Start: 100, End: 110},
	}}
	want := map[string]time.Duration{"root": 60, "a": 20, "c": 10, "b": 20}
	if got := rec.selfTimes(); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestChipSeedsAreDisjointAcrossSeedsAndWorkloads(t *testing.T) {
	seen := map[int64]string{}
	for i := range workloads {
		w := &workloads[i]
		for seed := int64(1); seed <= 10; seed++ {
			for i := 0; i < 200; i++ {
				cs := w.chipSeed(seed, i)
				if cs <= 0 {
					t.Fatalf("chip seed %d is not positive", cs)
				}
				if prev, dup := seen[cs]; dup {
					t.Fatalf("chip seed %d drawn twice: %s and %s/%d", cs, prev, w.name, seed)
				}
				seen[cs] = w.name
			}
		}
	}
}
