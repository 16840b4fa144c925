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
// WithTracer, WithPhases, WithoutGlobal, ...); the context
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

// Option configures a routing run. Options apply in order and a later
// one overrides an earlier one, so a zero value (WithPhases(0),
// WithPowerCap(0), ...) restores the default.
type Option func(*core.Options)

// WithWorkers sets the parallelism of both routing stages (default 1).
func WithWorkers(n int) Option { return func(o *core.Options) { o.Workers = n } }

// WithSeed seeds the randomized rounding of global routing.
func WithSeed(seed int64) Option { return func(o *core.Options) { o.Seed = seed } }

// WithTracer attaches an observability tracer; nil disables tracing.
func WithTracer(t *Tracer) Option { return func(o *core.Options) { o.Tracer = t } }

// WithPhases sets the phase count t of the resource-sharing global
// router (Algorithm 2); 0 selects the default (32).
func WithPhases(n int) Option { return func(o *core.Options) { o.GlobalPhases = n } }

// WithTileTracks sets the global tile size in tracks; 0 selects the
// default (8).
func WithTileTracks(n int) Option { return func(o *core.Options) { o.TileTracks = n } }

// WithPowerCap enables the power resource of global routing when
// positive; 0 disables it.
func WithPowerCap(v float64) Option { return func(o *core.Options) { o.PowerCap = v } }

// WithoutGlobal routes without global guidance (detailed-only mode).
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
// routing, interval-based detailed routing, DRC cleanup. The chip must
// pass Chip.Validate: Route does not check it, and an invalid chip (a
// layer pitch of 0, say) may panic inside the flow. NewSession checks it
// and returns the error. Cancelling ctx stops the flow at the next
// stage, phase or round boundary; the returned Result is then partial
// with Cancelled set.
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
