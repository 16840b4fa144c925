package bonnroute

import (
	"context"
	"errors"
	"sync"

	"bonnroute/internal/core"
	"bonnroute/internal/incremental"
)

// ErrStaleGeneration is returned by Session.RerouteAt when the caller's
// generation token no longer matches the session: another reroute
// committed in between, and applying this delta would silently build on
// a result the caller has never seen.
var ErrStaleGeneration = errors.New("bonnroute: stale session generation")

// ErrCancelled is returned by session operations whose routing flow was
// stopped by context cancellation before it could finish; the session
// keeps its previous result (nothing partial is ever committed).
var ErrCancelled = errors.New("bonnroute: routing cancelled")

// Session pins a chip together with its finished routing Result and the
// exact Options the result was produced with. It exists to remove the
// pairing hazard of a bare incremental.Reroute call: an ECO applied with
// options that differ from the previous run's (above all the seed)
// silently loses the determinism contract. A Session cannot get into
// that state — every Reroute reuses the pinned options.
//
// Sessions serialize: concurrent Reroute calls are applied one at a
// time, each against the result the previous one committed. Every
// committed reroute increments the session's generation; RerouteAt
// makes the expected generation explicit so stale submissions (built
// against a result that has since been replaced) are rejected with
// ErrStaleGeneration instead of being silently misapplied. This is the
// optimistic-concurrency primitive the routing service daemon
// (cmd/routed) builds its per-session queues on.
//
// A cancelled or failed reroute commits nothing: the session's chip,
// result and generation are unchanged, and the partial result (when the
// flow produced one) is returned alongside the error for inspection.
type Session struct {
	mu   sync.Mutex
	chip *Chip
	opt  core.Options
	res  *Result
	eco  *EcoStats
	gen  uint64
}

// NewSession routes the chip with the given options and pins the
// finished result. A chip that fails Chip.Validate is rejected with that
// error before any routing starts. Cancelling ctx aborts the initial
// route and returns the context's error (wrapped with ErrCancelled); no
// session is created from a partial result.
func NewSession(ctx context.Context, c *Chip, opts ...Option) (*Session, error) {
	if c == nil {
		return nil, errors.New("bonnroute: NewSession needs a chip")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	res := core.RouteBonnRoute(ctx, c, o)
	if res.Cancelled {
		if err := ctx.Err(); err != nil {
			return nil, errors.Join(ErrCancelled, err)
		}
		return nil, ErrCancelled
	}
	return &Session{chip: c, opt: o, res: res, gen: 1}, nil
}

// SessionFromResult pins an already-finished Result (routed by Route or
// a previous session) together with the options it was produced with.
// The caller vouches that opts match the run that produced res — this
// is the one place the pairing hazard survives, kept for callers that
// route outside a session and want to graduate into one.
func SessionFromResult(res *Result, opts ...Option) (*Session, error) {
	if res == nil || res.Chip == nil || res.Router == nil {
		return nil, errors.New("bonnroute: SessionFromResult needs a finished routing Result")
	}
	if res.Cancelled {
		return nil, errors.New("bonnroute: cannot pin a cancelled (partial) Result")
	}
	return &Session{chip: res.Chip, opt: buildOptions(opts), res: res, gen: 1}, nil
}

// Chip returns the session's current chip (the mutated chip after
// committed reroutes).
func (s *Session) Chip() *Chip {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chip
}

// Result returns the session's current finished Result. The result is
// shared, not copied; treat it as read-only.
func (s *Session) Result() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res
}

// Generation returns the session's current result generation. It starts
// at 1 and increments on every committed reroute.
func (s *Session) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Snapshot returns the current result, the EcoStats of the last
// committed reroute (nil right after creation), and the generation, all
// consistent with each other.
func (s *Session) Snapshot() (*Result, *EcoStats, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res, s.eco, s.gen
}

// Options returns a copy of the pinned options.
func (s *Session) Options() Options {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opt
}

// SetTracer swaps the observability tracer of the pinned options (nil
// detaches). Tracing never influences routing results, so this is the
// one pinned option that may change over a session's lifetime — the
// service daemon attaches a streaming tracer for the initial route and
// detaches it afterwards.
func (s *Session) SetTracer(t *Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opt.Tracer = t
}

// Reroute applies an ECO delta against the session's current result
// with the pinned options, committing the outcome and bumping the
// generation. Calls serialize; each sees the previous call's committed
// state. See RerouteAt for the explicit-generation form.
func (s *Session) Reroute(ctx context.Context, delta Delta) (*Result, *EcoStats, error) {
	res, st, _, err := s.RerouteAt(ctx, 0, delta)
	return res, st, err
}

// RerouteAt is Reroute with an optimistic generation token: fromGen is
// the generation the caller built the delta against, and the call is
// rejected with ErrStaleGeneration when the session has moved on
// (fromGen 0 skips the check). The returned generation is the session's
// generation after the call — on success the newly committed one, on
// rejection or error the unchanged current one.
//
// A reroute that errors or is cancelled mid-flow commits nothing; the
// partial result (if any) is returned with the error for inspection
// but the session still serves its previous result.
func (s *Session) RerouteAt(ctx context.Context, fromGen uint64, delta Delta) (*Result, *EcoStats, uint64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if fromGen != 0 && fromGen != s.gen {
		return nil, nil, s.gen, ErrStaleGeneration
	}
	res, st, err := incremental.Reroute(ctx, s.res, delta, s.opt)
	if err != nil {
		return nil, nil, s.gen, err
	}
	if res.Cancelled {
		if cerr := ctx.Err(); cerr != nil {
			err = errors.Join(ErrCancelled, cerr)
		} else {
			err = ErrCancelled
		}
		return res, st, s.gen, err
	}
	if !st.NoOp {
		s.res = res
		s.chip = res.Chip
		s.eco = st
		s.gen++
	}
	return res, st, s.gen, nil
}
