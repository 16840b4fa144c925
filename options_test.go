package bonnroute

import (
	"testing"

	"bonnroute/internal/obs"
)

// The functional options must compose left to right onto a zero
// core.Options (core applies its own defaults afterwards).
func TestOptionComposition(t *testing.T) {
	tr := obs.New(obs.NewMemorySink())
	o := buildOptions([]Option{
		WithWorkers(8),
		WithSeed(7),
		WithTracer(tr),
		WithPhases(16),
		WithTileTracks(10),
		WithPowerCap(50),
	})
	if o.Workers != 8 || o.Seed != 7 || o.Tracer != tr {
		t.Fatalf("basic options not applied: %+v", o)
	}
	if o.GlobalPhases != 16 || o.TileTracks != 10 || o.PowerCap != 50 {
		t.Fatalf("global options not applied: %+v", o)
	}
	if o.SkipGlobal {
		t.Fatal("SkipGlobal must default to false")
	}
}

// Later options win over earlier ones.
func TestOptionPrecedence(t *testing.T) {
	o := buildOptions([]Option{WithWorkers(2), WithWorkers(4), WithSeed(1), WithSeed(9)})
	if o.Workers != 4 || o.Seed != 9 {
		t.Fatalf("later option must win: %+v", o)
	}
}

// A later option overrides only its own field: the fields other
// options set before it are kept.
func TestOptionsSetOnlyTheirField(t *testing.T) {
	o := buildOptions([]Option{WithPhases(12), WithTileTracks(9), WithPowerCap(30), WithPhases(16)})
	if o.GlobalPhases != 16 || o.TileTracks != 9 || o.PowerCap != 30 {
		t.Fatalf("a later option clobbered another field: %+v", o)
	}
}

// With no options at all, buildOptions yields the zero Options —
// core.setDefaults supplies Workers=1, Phases=32, TileTracks=8.
func TestOptionDefaultsAreZero(t *testing.T) {
	o := buildOptions(nil)
	if o != (Options{}) {
		t.Fatalf("no options must mean zero Options, got %+v", o)
	}
}

func TestWithoutGlobalAndNilOption(t *testing.T) {
	o := buildOptions([]Option{nil, WithoutGlobal(), nil})
	if !o.SkipGlobal {
		t.Fatal("WithoutGlobal must set SkipGlobal")
	}
}

// Because a later option wins, zero is expressible: it clears an
// earlier setting, and core's defaults then fill it in.
func TestOptionExplicitZero(t *testing.T) {
	o := buildOptions([]Option{
		WithPhases(12), WithTileTracks(9), WithPowerCap(30),
		WithPhases(0), WithTileTracks(0), WithPowerCap(0),
	})
	if o.GlobalPhases != 0 || o.TileTracks != 0 || o.PowerCap != 0 {
		t.Fatalf("explicit zeros must clear earlier settings: %+v", o)
	}
	o.SetDefaults()
	if o.GlobalPhases != 32 || o.TileTracks != 8 || o.PowerCap != 0 {
		t.Fatalf("cleared fields must take the core defaults: %+v", o)
	}
}

// WithOptions replaces everything before it; later options still win.
func TestWithOptionsComposition(t *testing.T) {
	o := buildOptions([]Option{
		WithWorkers(8),
		WithOptions(Options{Seed: 5, GlobalPhases: 7}),
		WithWorkers(2),
	})
	if o.Workers != 2 || o.Seed != 5 || o.GlobalPhases != 7 {
		t.Fatalf("WithOptions composition wrong: %+v", o)
	}
	if o.TileTracks != 0 {
		t.Fatalf("WithOptions must replace, not merge: %+v", o)
	}
}
