package bonnroute_test

import (
	"context"
	"errors"
	"testing"

	"bonnroute"
	"bonnroute/internal/chip"
	"bonnroute/internal/incremental"
)

func sessionChip() *bonnroute.Chip {
	return bonnroute.GenerateChip(bonnroute.ChipParams{
		Seed: 31, Rows: 4, Cols: 12, NumNets: 28, NumLayers: 4, LocalityRadius: 4,
	})
}

// A session reroute with the pinned options must be bit-equal in the
// headline metrics to a bare incremental.Reroute fed the same options
// by hand — the session only removes the pairing hazard, it must not
// change results.
func TestSessionMatchesBareReroute(t *testing.T) {
	ctx := context.Background()
	opts := []bonnroute.Option{bonnroute.WithSeed(31)}

	s, err := bonnroute.NewSession(ctx, sessionChip(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 1 {
		t.Fatalf("fresh session generation = %d, want 1", s.Generation())
	}
	delta := bonnroute.RandomDelta(s.Chip(), 7, bonnroute.EcoGenConfig{})

	prev := bonnroute.Route(ctx, sessionChip(), opts...)
	want, wantStats, err := incremental.Reroute(ctx, prev, delta, bonnroute.Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}

	got, gotStats, err := s.Reroute(ctx, delta)
	if err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 2 {
		t.Fatalf("generation after commit = %d, want 2", s.Generation())
	}
	if got.Metrics.Netlength != want.Metrics.Netlength ||
		got.Metrics.Vias != want.Metrics.Vias ||
		got.Metrics.Errors != want.Metrics.Errors ||
		got.Metrics.Unrouted != want.Metrics.Unrouted {
		t.Fatalf("session result differs from bare Reroute:\n  session %+v\n  bare    %+v",
			got.Metrics, want.Metrics)
	}
	if gotStats.DirtyNets != wantStats.DirtyNets || gotStats.ReplayedNets != wantStats.ReplayedNets {
		t.Fatalf("eco stats differ: session %+v, bare %+v", gotStats, wantStats)
	}
	if s.Result() != got {
		t.Fatal("session must serve the committed result")
	}
}

func TestSessionStaleGeneration(t *testing.T) {
	ctx := context.Background()
	s, err := bonnroute.NewSession(ctx, sessionChip(), bonnroute.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	d1 := bonnroute.RandomDelta(s.Chip(), 7, bonnroute.EcoGenConfig{})
	if _, _, _, err := s.RerouteAt(ctx, 1, d1); err != nil {
		t.Fatal(err)
	}
	// A delta built against generation 1 must now be rejected, not
	// silently applied on top of generation 2.
	d2 := bonnroute.Delta{RemoveNets: []int{0}}
	_, _, gen, err := s.RerouteAt(ctx, 1, d2)
	if !errors.Is(err, bonnroute.ErrStaleGeneration) {
		t.Fatalf("stale submission: got err %v, want ErrStaleGeneration", err)
	}
	if gen != 2 {
		t.Fatalf("rejection must report the current generation, got %d", gen)
	}
	// Generation 0 skips the check.
	if _, _, _, err := s.RerouteAt(ctx, 0, d2); err != nil {
		t.Fatal(err)
	}
}

// A cancelled reroute must not commit: the session keeps serving its
// previous result and generation.
func TestSessionCancelledRerouteNotCommitted(t *testing.T) {
	s, err := bonnroute.NewSession(context.Background(), sessionChip(), bonnroute.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	before, _, genBefore := s.Snapshot()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := bonnroute.RandomDelta(s.Chip(), 7, bonnroute.EcoGenConfig{})
	_, _, err = s.Reroute(ctx, d)
	if !errors.Is(err, bonnroute.ErrCancelled) {
		t.Fatalf("got err %v, want ErrCancelled", err)
	}
	after, _, genAfter := s.Snapshot()
	if after != before || genAfter != genBefore {
		t.Fatal("cancelled reroute must not change the session")
	}
}

func TestNewSessionCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bonnroute.NewSession(ctx, sessionChip()); !errors.Is(err, bonnroute.ErrCancelled) {
		t.Fatalf("got err %v, want ErrCancelled", err)
	}
}

// An invalid chip is rejected with chip.Validate's error before routing:
// a zero layer pitch used to panic inside the flow.
func TestNewSessionRejectsInvalidChip(t *testing.T) {
	c := sessionChip()
	c.Deck.Layers[0].Pitch = 0
	want := c.Validate()
	if want == nil {
		t.Fatal("a zero pitch must fail chip.Validate")
	}
	s, err := bonnroute.NewSession(context.Background(), c)
	if s != nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("got session %v, err %v; want chip.Validate's error %v", s, err, want)
	}
}

func TestSessionFromResult(t *testing.T) {
	ctx := context.Background()
	res := bonnroute.Route(ctx, sessionChip(), bonnroute.WithSeed(31))
	s, err := bonnroute.SessionFromResult(res, bonnroute.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	if s.Result() != res || s.Generation() != 1 {
		t.Fatal("SessionFromResult must pin the given result at generation 1")
	}
	if _, err := bonnroute.SessionFromResult(nil); err == nil {
		t.Fatal("nil result must be rejected")
	}
}

// outcome is the deterministic part of a Table-I row.
type outcome struct {
	Nets, Unrouted, Vias, Errors int
	Netlength                    int64
}

func outcomeOf(res *bonnroute.Result) outcome {
	m := res.Metrics
	return outcome{m.Nets, m.Unrouted, m.Vias, m.Errors, m.Netlength}
}

// TestOutcomePins pins absolute routing outcomes: two fixed scale-tier
// chips routed from scratch at Workers 1 and 2, and a session on the
// larger one driven through two seeded ECO deltas (whose dirty nets
// include ones that exhaust their rip-up retries). Routing is
// deterministic, so a change meant as plumbing — a queue, a cache, an
// options path — must leave every literal below untouched; a change
// that moves one is a quality change and has to say so.
func TestOutcomePins(t *testing.T) {
	ctx := context.Background()
	var last *bonnroute.Result
	for _, tc := range []struct {
		nets int
		seed int64
		want outcome
	}{
		{30, 3, outcome{Nets: 30, Unrouted: 2, Vias: 42, Errors: 10, Netlength: 35152}},
		{120, 4, outcome{Nets: 120, Unrouted: 2, Vias: 129, Errors: 76, Netlength: 121718}},
	} {
		c := bonnroute.GenerateChip(chip.ScaledParams("pin", tc.seed, tc.nets))
		for _, workers := range []int{2, 1} {
			last = bonnroute.Route(ctx, c, bonnroute.WithSeed(tc.seed), bonnroute.WithWorkers(workers))
			if got := outcomeOf(last); got != tc.want {
				t.Errorf("%d nets, seed %d, workers %d: got %+v, want %+v", tc.nets, tc.seed, workers, got, tc.want)
			}
		}
	}

	// last is the 120-net chip's Workers=1 result, routed with seed 4.
	s, err := bonnroute.SessionFromResult(last, bonnroute.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []outcome{
		{Nets: 120, Unrouted: 2, Vias: 128, Errors: 70, Netlength: 122263},
		{Nets: 120, Unrouted: 2, Vias: 126, Errors: 70, Netlength: 121241},
	} {
		res, st, err := s.Reroute(ctx, bonnroute.RandomDelta(s.Chip(), int64(11+i), bonnroute.EcoGenConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		if st.FellBack {
			t.Fatalf("reroute %d fell back to a full run; the pin must cover the incremental path", i)
		}
		if got := outcomeOf(res); got != want {
			t.Errorf("reroute %d: got %+v, want %+v", i, got, want)
		}
	}
}
