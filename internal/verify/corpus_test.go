package verify

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"bonnroute/internal/chip"
	"bonnroute/internal/core"
	"bonnroute/internal/incremental"
)

// The golden regression corpus: every minimal reproducer the fuzz
// harness (cmd/routefuzz) has printed is checked into testdata/ as a
// JSON scenario and replayed here as an ordinary test case, so CI never
// depends on re-fuzzing to keep an old bug fixed. Add a file, not code:
// the loader runs whatever it finds.
//
// Schema (unknown fields are rejected):
//
//	{
//	  "name":        "short-slug",
//	  "comment":     "what the bug was / why this scenario is pinned",
//	  "gen":         {chip.GenParams fields},
//	  "options":     {core.Options wire fields, e.g. "seed": n, "workers": n},
//	  "determinism": [workersA, workersB],          // optional double-run
//	  "eco":         {"DeltaSeed": n, "WorkersB": n, // optional ECO check
//	                  "Gen": {incremental.GenConfig fields}}
//	}
type corpusCase struct {
	Name        string
	Comment     string
	Gen         chip.GenParams
	Options     core.Options
	Determinism []int
	Eco         *corpusEco
}

type corpusEco struct {
	DeltaSeed int64
	WorkersB  int
	Gen       incremental.GenConfig
}

func TestGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("golden corpus is empty — testdata/*.json missing")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var tc corpusCase
		if err := dec.Decode(&tc); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if tc.Name == "" || tc.Comment == "" {
			t.Fatalf("%s: corpus cases need a name and a comment", f)
		}
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			if tc.Eco != nil {
				viol := ECOEquivalence(ctx, tc.Gen, tc.Options, ECOOptions{
					DeltaSeed: tc.Eco.DeltaSeed,
					Gen:       tc.Eco.Gen,
					WorkersB:  tc.Eco.WorkersB,
				})
				for _, v := range viol {
					t.Errorf("%s", v)
				}
				return
			}
			res := core.RouteBonnRoute(ctx, chip.Generate(tc.Gen), tc.Options)
			for _, v := range Run(res, Options{}).Violations {
				t.Errorf("%s", v)
			}
			if len(tc.Determinism) == 2 {
				viol := Determinism(ctx, tc.Gen, tc.Options,
					tc.Determinism[0], tc.Determinism[1])
				for _, v := range viol {
					t.Errorf("%s", v)
				}
			}
		})
	}
}
