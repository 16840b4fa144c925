// Package bonnroute is a from-scratch reproduction of "BonnRoute:
// Algorithms and Data Structures for Fast and Good VLSI Routing" (Gester,
// Müller, Nieberg, Panten, Schulte, Vygen; DAC 2012 / ACM TODAES 2013).
//
// The package exposes the complete routing system: synthetic chip
// generation (the stand-in for the paper's proprietary IBM designs), the
// BonnRoute flow — min-max resource sharing global routing (Algorithm 2)
// over capacities from usable-track estimation, interval-based detailed
// routing (Algorithm 4) on optimized tracks backed by the shape-grid /
// fast-grid routing-space representation, τ-feasible off-track pin access
// with conflict-free selection, and a DRC cleanup pass — and the
// classical "industry standard router" baseline used as the comparator in
// the paper's evaluation.
//
// Quick start:
//
//	c := bonnroute.GenerateChip(bonnroute.ChipParams{Seed: 1, Rows: 8, Cols: 16, NumNets: 80})
//	res := bonnroute.Route(context.Background(), c, bonnroute.WithSeed(1))
//	fmt.Println(res.Metrics)
//
// Runs are configured with functional options (WithWorkers, WithSeed,
// WithTracer, WithGlobalConfig, WithDetailConfig, ...); the context
// carries cancellation — cancel it and the flow stops at the next stage,
// phase or round boundary and returns a partial Result with Cancelled
// set. Attach a Tracer (NewTracer over JSONL, progress or in-memory
// sinks) to observe every stage, global-routing phase and detailed-
// routing round as spans with metrics.
//
// For incremental (ECO) work, NewSession pins a chip, its finished
// Result and the exact options used, and Session.Reroute applies deltas
// against that pinned state with optimistic generation tokens — the
// session-oriented API the routing service daemon (cmd/routed) serves
// over HTTP. Summarize produces the trimmed, JSON-stable ResultSummary
// wire view of a Result.
//
// The building blocks live in internal packages, one per subsystem of the
// paper (see DESIGN.md for the full inventory); this package is the
// stable façade.
package bonnroute

import (
	"context"
	"io"

	"bonnroute/internal/chip"
	"bonnroute/internal/core"
	"bonnroute/internal/incremental"
	"bonnroute/internal/obs"
	"bonnroute/internal/report"
)

// ECO (incremental rerouting) re-exports: a Delta describes a scenario
// change against an already-routed chip — nets added (NewNet) or
// removed, pins moved (PinMove), blockages dropped in — and EcoStats
// reports what Reroute reused versus redid. PinShape and Obstacle are
// the chip geometry types deltas are built from.
type (
	Delta    = incremental.Delta
	NewNet   = incremental.NewNet
	PinMove  = incremental.PinMove
	EcoStats = incremental.Stats
	PinShape = chip.PinShape
	Obstacle = chip.Obstacle
)

// ChipParams parameterize the synthetic chip generator (the substitute
// for the paper's IBM designs; every value is documented on the
// underlying type).
type ChipParams = chip.GenParams

// Chip is a complete routing instance: layers, cells, pins, blockages,
// and nets.
type Chip = chip.Chip

// Options is the low-level configuration struct consumed by
// WithOptions; prefer the functional options of Route.
type Options = core.Options

// Result is a completed flow: global and detailed statistics, the DRC
// audit, per-net geometry, and the Table-I-style metrics row.
type Result = core.Result

// Metrics is one Table-I row (runtime, netlength, vias, scenic nets,
// errors).
type Metrics = report.Metrics

// ResultSummary is the trimmed, JSON-stable wire view of a Result
// (metrics, audit counts, per-net status — no geometry); the routing
// service serves these over HTTP.
type ResultSummary = core.ResultSummary

// Summarize builds the wire view of a Result.
func Summarize(res *Result) ResultSummary { return core.Summarize(res) }

// Observability re-exports: a Tracer fans spans, events, counters and
// gauges out to Sinks; nil tracers and spans are no-ops, so tracing can
// be left off at zero cost.
type (
	Tracer     = obs.Tracer
	Span       = obs.Span
	Sink       = obs.Sink
	SinkFunc   = obs.SinkFunc
	Record     = obs.Record
	MemorySink = obs.MemorySink
)

// NewTracer builds a tracer over the given sinks; with no sinks it
// returns nil, which is valid and free everywhere a tracer is accepted.
func NewTracer(sinks ...Sink) *Tracer { return obs.New(sinks...) }

// NewJSONLSink streams trace records as JSON lines to w.
func NewJSONLSink(w io.Writer) *obs.JSONLSink { return obs.NewJSONLSink(w) }

// NewProgressSink writes an indented, human-readable live log to w.
func NewProgressSink(w io.Writer) *obs.ProgressSink { return obs.NewProgressSink(w) }

// NewMemorySink collects records in memory for inspection (tests).
func NewMemorySink() *MemorySink { return obs.NewMemorySink() }

// GlobalConfig collects the global-routing knobs for WithGlobalConfig.
//
// A plain struct literal keeps the historical merge semantics: zero
// fields leave whatever an earlier option set. That makes zero and
// false inexpressible from a literal, so every field also has a SetX
// accessor that marks it explicitly set — SetPowerCap(0) really
// disables the power resource and SetSkip(false) really re-enables
// global routing, where the literal forms would silently be no-ops.
type GlobalConfig struct {
	// Phases is Algorithm 2's t (default 32).
	Phases int
	// TileTracks sets the global tile size in tracks (default 8).
	TileTracks int
	// PowerCap enables the power resource when positive.
	PowerCap float64
	// Skip routes without global guidance (detailed-only mode).
	Skip bool
	// ExactSteiner is the net-degree threshold for the exact
	// goal-oriented Steiner oracle: nets whose terminals merge to at
	// most this many groups get provably minimum trees, larger nets the
	// Path Composition heuristic. 0 keeps the core default (9); use
	// SetExactSteiner(-1) to disable the exact oracle entirely.
	ExactSteiner int

	set uint8
}

const (
	gcPhases = 1 << iota
	gcTileTracks
	gcPowerCap
	gcSkip
	gcExactSteiner
)

// SetPhases returns a copy with Phases explicitly set; 0 restores the
// core default (32) even when an earlier option raised it.
func (g GlobalConfig) SetPhases(n int) GlobalConfig {
	g.Phases, g.set = n, g.set|gcPhases
	return g
}

// SetTileTracks returns a copy with TileTracks explicitly set; 0
// restores the core default (8).
func (g GlobalConfig) SetTileTracks(n int) GlobalConfig {
	g.TileTracks, g.set = n, g.set|gcTileTracks
	return g
}

// SetPowerCap returns a copy with PowerCap explicitly set; 0 disables
// the power resource even when an earlier option enabled it.
func (g GlobalConfig) SetPowerCap(v float64) GlobalConfig {
	g.PowerCap, g.set = v, g.set|gcPowerCap
	return g
}

// SetSkip returns a copy with Skip explicitly set; false re-enables
// global routing even after WithoutGlobal or an earlier Skip.
func (g GlobalConfig) SetSkip(b bool) GlobalConfig {
	g.Skip, g.set = b, g.set|gcSkip
	return g
}

// SetExactSteiner returns a copy with ExactSteiner explicitly set: 0
// restores the core default threshold (9) even when an earlier option
// changed it, and negative values disable the exact oracle — both
// inexpressible from a struct literal, whose zero field merely merges.
func (g GlobalConfig) SetExactSteiner(n int) GlobalConfig {
	g.ExactSteiner, g.set = n, g.set|gcExactSteiner
	return g
}

// DetailConfig collects the detailed-routing knobs for WithDetailConfig.
// Like GlobalConfig, struct-literal fields merge (zero keeps earlier
// settings) and SetX accessors set explicitly, including to false.
type DetailConfig struct {
	// UsePFuture enables the blockage-aware future cost (§3.5).
	UsePFuture bool

	set uint8
}

const (
	dcUsePFuture = 1 << iota
)

// SetUsePFuture returns a copy with UsePFuture explicitly set; false
// disables the blockage-aware future cost even when an earlier option
// enabled it.
func (d DetailConfig) SetUsePFuture(b bool) DetailConfig {
	d.UsePFuture, d.set = b, d.set|dcUsePFuture
	return d
}

// Option configures a routing run.
type Option func(*core.Options)

// WithWorkers sets the parallelism of both routing stages (default 1).
func WithWorkers(n int) Option { return func(o *core.Options) { o.Workers = n } }

// WithSeed seeds the randomized rounding of global routing.
func WithSeed(seed int64) Option { return func(o *core.Options) { o.Seed = seed } }

// WithTracer attaches an observability tracer; nil disables tracing.
func WithTracer(t *Tracer) Option { return func(o *core.Options) { o.Tracer = t } }

// WithGlobalConfig applies the global-routing configuration. Fields of
// a plain struct literal merge: zero values keep whatever is already
// set. Fields marked with the SetX accessors apply unconditionally,
// which is the only way to express zero and false (SetPowerCap(0),
// SetSkip(false), ...).
func WithGlobalConfig(g GlobalConfig) Option {
	return func(o *core.Options) {
		if g.Phases > 0 || g.set&gcPhases != 0 {
			o.GlobalPhases = g.Phases
		}
		if g.TileTracks > 0 || g.set&gcTileTracks != 0 {
			o.TileTracks = g.TileTracks
		}
		if g.PowerCap > 0 || g.set&gcPowerCap != 0 {
			o.PowerCap = g.PowerCap
		}
		if g.set&gcSkip != 0 {
			o.SkipGlobal = g.Skip
		} else if g.Skip {
			o.SkipGlobal = true
		}
		if g.ExactSteiner != 0 || g.set&gcExactSteiner != 0 {
			o.ExactSteinerMax = g.ExactSteiner
		}
	}
}

// WithDetailConfig applies the detailed-routing configuration, with the
// same merge-vs-explicit semantics as WithGlobalConfig.
func WithDetailConfig(d DetailConfig) Option {
	return func(o *core.Options) {
		if d.set&dcUsePFuture != 0 {
			o.UsePFuture = d.UsePFuture
		} else if d.UsePFuture {
			o.UsePFuture = true
		}
	}
}

// WithoutGlobal is shorthand for WithGlobalConfig(GlobalConfig{Skip: true}).
func WithoutGlobal() Option { return func(o *core.Options) { o.SkipGlobal = true } }

// WithOptions replaces the whole option struct with a caller-held
// core.Options — the single documented escape hatch for callers that
// assemble configurations outside the functional options. It composes
// like any other option: it overwrites everything applied before it,
// and later options still win over it, so it normally goes first:
//
//	bonnroute.Route(ctx, c, bonnroute.WithOptions(opt), bonnroute.WithWorkers(4))
func WithOptions(opt Options) Option {
	return func(o *core.Options) { *o = opt }
}

// WithEcoThreshold sets the dirty-fraction above which Reroute falls
// back to a full from-scratch run (default 0.35; negative never falls
// back).
func WithEcoThreshold(f float64) Option {
	return func(o *core.Options) { o.EcoThreshold = f }
}

func buildOptions(opts []Option) core.Options {
	var o core.Options
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// GenerateChip builds a deterministic synthetic chip.
func GenerateChip(p ChipParams) *Chip { return chip.Generate(p) }

// Route runs the full BonnRoute flow on the chip: resource-sharing global
// routing, interval-based detailed routing, DRC cleanup. Cancelling ctx
// stops the flow at the next stage, phase or round boundary; the
// returned Result is then partial with Cancelled set.
func Route(ctx context.Context, c *Chip, opts ...Option) *Result {
	return core.RouteBonnRoute(ctx, c, buildOptions(opts))
}

// RouteBaseline runs the ISR-like classical flow (sequential negotiated
// global routing, node-based maze detailed routing) — the comparator of
// the paper's Tables I and III. Context semantics match Route.
func RouteBaseline(ctx context.Context, c *Chip, opts ...Option) *Result {
	return core.RouteBaseline(ctx, c, buildOptions(opts))
}

// RandomDelta builds a seeded random ECO scenario against a chip:
// useful for stress tests and benchmarks. The zero GenConfig scales the
// delta to roughly 3% of the chip's nets.
func RandomDelta(c *Chip, seed int64, cfg incremental.GenConfig) Delta {
	return incremental.RandomDelta(c, seed, cfg)
}

// EcoGenConfig sizes RandomDelta.
type EcoGenConfig = incremental.GenConfig

// FormatMetrics renders Table-I-style rows.
func FormatMetrics(rows []Metrics) string { return report.FormatTableI(rows) }
