package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// contract is the part of BENCHMARK.json the suite and its tests read.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contractPath is BENCHMARK.json seen from the benchmark's directory,
// which is the working directory under run.sh and `go run -C bench`.
const contractPath = "../BENCHMARK.json"

func loadContract() (*contract, error) {
	data, err := os.ReadFile(contractPath)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", contractPath, err)
	}
	return &c, nil
}

// childRun is one finished child process.
type childRun struct {
	res  runResult
	info runInfo
}

// runChild runs one (workload, seed, traced) pair in a fresh process,
// so that peak memory and GC state are per run, and parses the two
// machine-readable lines at the end of its output.
func runChild(workload string, seed int64, seconds int, traced bool) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var cr childRun
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "#info "); ok {
			if err := json.Unmarshal([]byte(rest), &cr.info); err != nil {
				return nil, fmt.Errorf("%s: bad #info line: %w", workload, err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &cr.res); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %w", workload, runErr, err)
	}
	return &cr, nil
}

// workloadReport is one workload's entry of the -json file.
type workloadReport struct {
	EndToEnd     map[string]value  `json:"end_to_end"`
	PerLayer     map[string]value  `json:"per_layer"`
	OpsAttempted int               `json:"ops_attempted"`
	OpsFailed    int               `json:"ops_failed"`
	Samples      map[string]int    `json:"samples"`
	Counts       map[string]int64  `json:"counts"`
	Failures     []string          `json:"failures,omitempty"`
	Env          map[string]string `json:"env"`
}

func environment(seed int64, seconds int) map[string]string {
	return map[string]string{
		"nproc": strconv.Itoa(runtime.NumCPU()), "gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go": runtime.Version(), "os_arch": runtime.GOOS + "/" + runtime.GOARCH,
		"seed": strconv.FormatInt(seed, 10), "seconds": strconv.Itoa(seconds),
	}
}

// runSuite runs every workload untraced and traced, each in its own
// child process, prints every metric by name with its unit, and exits
// non-zero on an incorrect result.
func runSuite(seed int64, seconds int, jsonOut string) int {
	env := environment(seed, seconds)
	fmt.Printf("suite seed %d seconds %d env %v\n", seed, seconds, env)
	report := map[string]*workloadReport{}
	status := 0
	for i := range workloads {
		w := &workloads[i]
		wr := &workloadReport{Samples: map[string]int{}, Env: env}
		report[w.name] = wr
		for _, traced := range []bool{false, true} {
			cr, err := runChild(w.name, seed, seconds, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				status = 1
				continue
			}
			if traced {
				wr.PerLayer = cr.res.Metrics
			} else {
				wr.EndToEnd = cr.res.Metrics
			}
			wr.OpsAttempted += cr.res.Attempted
			wr.OpsFailed += cr.res.Failed
			wr.Failures = append(wr.Failures, cr.info.Failures...)
			for k, n := range cr.info.Samples {
				wr.Samples[k] = n
			}
			if !traced {
				wr.Counts = cr.info.Counts
			}
			if !cr.res.Correct {
				status = 1
			}
		}
		fmt.Printf("\n== %s: %s\n", w.name, w.why)
		printTable("end to end (untraced run):", endToEnd, wr.EndToEnd)
		printTable("per layer (traced run):", perLayer, wr.PerLayer)
		fmt.Printf("ops attempted %d failed %d samples %v counts %v\n", wr.OpsAttempted, wr.OpsFailed, wr.Samples, wr.Counts)
		for _, f := range wr.Failures {
			fmt.Printf("FAILED %s\n", f)
		}
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", jsonOut, err)
			status = 1
		}
	}
	if status != 0 {
		fmt.Println("\nbench: FAILED (incorrect result or failed run)")
	}
	return status
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// worsening is how much b is worse than a as a share of a, under the
// metric's direction (negative = better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runSelfcheck applies the acceptance rule of the benchmark contract to
// the current build: two passes over every workload (the second in
// reverse order), each running `seeds` untraced seeds and one traced
// run; per end-to-end metric the spread between the quartiles of a
// pass as a share of its median, and the worsening of the second
// median against the first, both against the metric's bound; and every
// quality metric and per-layer count of one seed must repeat exactly.
func runSelfcheck(seconds, seeds int) int {
	ct, err := loadContract()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -selfcheck needs the bounds: %v\n", err)
		return 1
	}
	type key struct {
		workload, metric string
	}
	values := [2]map[key][]float64{{}, {}}
	traced := [2]map[string]map[string]value{{}, {}}
	status := 0
	for pass := 0; pass < 2; pass++ {
		order := make([]*workload, len(workloads))
		for i := range workloads {
			order[i] = &workloads[i]
			if pass == 1 {
				order[i] = &workloads[len(workloads)-1-i]
			}
		}
		for _, w := range order {
			for s := 1; s <= seeds; s++ {
				cr, err := runChild(w.name, int64(s), seconds, false)
				if err != nil || !cr.res.Correct {
					fmt.Printf("pass %d %s seed %d: FAILED %v %v\n", pass+1, w.name, s, err, crFailures(cr))
					status = 1
					continue
				}
				for name, v := range cr.res.Metrics {
					values[pass][key{w.name, name}] = append(values[pass][key{w.name, name}], v.Value)
				}
			}
			cr, err := runChild(w.name, 1, seconds, true)
			if err != nil || !cr.res.Correct {
				fmt.Printf("pass %d %s traced: FAILED %v %v\n", pass+1, w.name, err, crFailures(cr))
				status = 1
				continue
			}
			traced[pass][w.name] = cr.res.Metrics
			fmt.Printf("pass %d %s done\n", pass+1, w.name)
		}
	}

	fmt.Printf("\n%-12s %-20s %12s %9s %9s %9s %7s\n", "workload", "metric", "median", "spread1", "spread2", "drift", "bound")
	for i := range workloads {
		w := workloads[i].name
		for _, cm := range ct.EndToEnd {
			a, b := values[0][key{w, cm.Name}], values[1][key{w, cm.Name}]
			if len(a) == 0 || len(a) != len(b) {
				continue
			}
			_, m1, _ := quartiles(a)
			_, m2, _ := quartiles(b)
			drift := worsening(m1, m2, cm.Better)
			verdict := ""
			spread := [2]float64{}
			if len(a) >= 4 {
				for p, xs := range [][]float64{a, b} {
					q1, q2, q3 := quartiles(xs)
					spread[p] = ratio(q3-q1, math.Abs(q2))
					if cm.Name != "setup_s" && spread[p] > cm.Bound {
						verdict = "  SPREAD OUT OF BOUND"
						status = 1
					}
				}
			}
			if drift > cm.Bound {
				verdict += "  DRIFT OUT OF BOUND"
				status = 1
			}
			if deterministic(cm.Name) {
				for s := range a {
					if a[s] != b[s] {
						verdict += fmt.Sprintf("  seed %d NOT REPEATED", s+1)
						status = 1
					}
				}
			}
			fmt.Printf("%-12s %-20s %12.6g %8.2f%% %8.2f%% %+8.2f%% %6.0f%%%s\n",
				w, cm.Name, m1, 100*spread[0], 100*spread[1], 100*drift, 100*cm.Bound, verdict)
		}
		for _, d := range perLayer {
			a, okA := traced[0][w][d.Name]
			b, okB := traced[1][w][d.Name]
			// Counts of the routed program repeat exactly; the Go
			// runtime's (GC cycles) follow the clock.
			if okA && okB && d.Unit == "count" && !strings.HasPrefix(d.Name, "runtime.") && a.Value != b.Value {
				fmt.Printf("%-12s %-28s count %v then %v  NOT REPEATED\n", w, d.Name, a.Value, b.Value)
				status = 1
			}
		}
	}
	if status != 0 {
		fmt.Println("\nbench: selfcheck FAILED")
	} else {
		fmt.Println("\nbench: selfcheck passed")
	}
	return status
}

// deterministic names the end-to-end metrics that are pure functions of
// the seed: the quality of the routing.
func deterministic(name string) bool {
	switch name {
	case "wirelength_ratio", "vias_per_net", "drc_clean_share", "routed_share":
		return true
	}
	return false
}

func crFailures(cr *childRun) []string {
	if cr == nil {
		return nil
	}
	return cr.info.Failures
}
