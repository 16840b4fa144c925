package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bonnroute/internal/chip"
)

// wireSummary is a fixed ResultSummary with every field populated.
func wireSummary() ResultSummary {
	return ResultSummary{
		Flow: "BR+eco", Nets: 4, RuntimeMS: 123.456,
		Netlength: 48061, Vias: 321, Scenic25: 2, Scenic50: 1,
		Errors: 1, Unrouted: 1,
		Audit: AuditSummary{DiffNet: 1, MinArea: 0, Notch: 0, ShortEdge: 0, Opens: 0, Total: 1},
		Global: &GlobalSummary{
			Lambda: 0.8125, Overflowed: 2, Unrouted: 0, Violations: 1,
		},
		PerNet: []NetStatus{
			{ID: 0, Routed: true, Length: 1200, Vias: 4},
			{ID: 1, Routed: true, Length: 800, Vias: 2},
			{ID: 2, Routed: false},
			{ID: 3, Routed: true, Length: 46061, Vias: 315},
		},
	}
}

// TestSummaryWireSchema pins the ResultSummary wire schema with a
// golden file and requires a clean JSON round-trip.
func TestSummaryWireSchema(t *testing.T) {
	checkWireGolden(t, "wire_summary.golden.json", wireSummary())
}

// TestOptionsWireSchema pins the Options wire schema the routing service
// accepts: every wire field populated, the process-local tracer and
// sharding fields absent.
func TestOptionsWireSchema(t *testing.T) {
	checkWireGolden(t, "wire_options.golden.json", Options{
		Seed: 31, Workers: 2, GlobalPhases: 16, TileTracks: 10,
		PowerCap: 50, SkipGlobal: true, EcoThreshold: 0.5,
	})
}

// checkWireGolden compares v's indented JSON with testdata/name
// (regenerate with UPDATE_GOLDEN=1 go test ./internal/core) and requires
// the golden to decode back to v.
func checkWireGolden[T any](t *testing.T, name string, v T) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run UPDATE_GOLDEN=1 go test): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire schema drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	var fresh T
	if err := json.Unmarshal(want, &fresh); err != nil {
		t.Fatalf("golden does not unmarshal: %v", err)
	}
	if !reflect.DeepEqual(fresh, v) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", fresh, v)
	}
}

// Summarize must agree with the Result it trims.
func TestSummarizeAgreesWithResult(t *testing.T) {
	c := chip.Generate(chip.GenParams{Seed: 5, Rows: 4, Cols: 10, NumNets: 20, NumLayers: 4})
	res := RouteBonnRoute(context.Background(), c, Options{Seed: 5})
	s := Summarize(res)

	if s.Flow != res.Flow || s.Nets != len(c.Nets) {
		t.Fatalf("headline mismatch: %+v", s)
	}
	if s.Netlength != res.Metrics.Netlength || s.Vias != res.Metrics.Vias ||
		s.Errors != res.Metrics.Errors || s.Unrouted != res.Metrics.Unrouted {
		t.Fatalf("metrics mismatch: summary %+v, result %+v", s, res.Metrics)
	}
	if s.Audit.Total != res.Audit.Errors() {
		t.Fatalf("audit total %d != %d", s.Audit.Total, res.Audit.Errors())
	}
	if s.Global == nil {
		t.Fatal("global summary missing for a run with global routing")
	}
	if len(s.PerNet) != len(c.Nets) {
		t.Fatalf("per-net status length %d != %d", len(s.PerNet), len(c.Nets))
	}
	var routed int
	for ni, ns := range s.PerNet {
		if ns.ID != ni {
			t.Fatalf("per-net ID %d at index %d", ns.ID, ni)
		}
		if ns.Routed {
			routed++
		}
	}
	if routed+s.Unrouted != len(c.Nets) {
		t.Fatalf("routed %d + unrouted %d != nets %d", routed, s.Unrouted, len(c.Nets))
	}
}
