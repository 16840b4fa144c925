package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"bonnroute"
	"bonnroute/internal/chip"
	"bonnroute/internal/incremental"
	"bonnroute/internal/service"
)

// Wire forms of the daemon's requests and replies (the fields the
// client uses; the daemon's own types are unexported).
type createRequest struct {
	Name    string              `json:"name"`
	Chip    service.ChipWire    `json:"chip"`
	Options service.OptionsWire `json:"options"`
}

type rerouteRequest struct {
	FromGeneration uint64          `json:"from_generation"`
	Delta          bonnroute.Delta `json:"delta"`
}

type assessRequest struct {
	Delta bonnroute.Delta `json:"delta"`
}

type sessionReply struct {
	Generation uint64                  `json:"generation"`
	NoOp       bool                    `json:"no_op"`
	Eco        *bonnroute.EcoStats     `json:"eco"`
	Summary    bonnroute.ResultSummary `json:"summary"`
}

func chipWire(p chip.GenParams) service.ChipWire {
	return service.ChipWire{
		Name: p.Name, Seed: p.Seed, Rows: p.Rows, Cols: p.Cols,
		NumLayers: p.NumLayers, Pitch: p.Pitch, NumNets: p.NumNets,
		MaxDegree: p.MaxDegree, Utilization: p.Utilization,
		LocalityRadius: p.LocalityRadius, PowerStripePeriod: p.PowerStripePeriod,
		WideNetPct: p.WideNetPct, CriticalPct: p.CriticalPct,
	}
}

// ecoDelta sizes every generated delta: small against the chip, with
// all four kinds of change present.
var ecoDelta = incremental.GenConfig{AddNets: 1, RemoveNets: 1, MovePins: 1, AddBlockages: 1}

// ecoClient is the one closed-loop client: it sends the next request
// only after the previous reply, so the daemon is never queued.
type ecoClient struct {
	base string
	hc   *http.Client
	ops  *ops
	rec  *recorder // nil in the untraced run
	n429 int
	reqs int
}

// call sends one request and decodes a 2xx reply into out. Any other
// outcome fails the operation.
func (cl *ecoClient) call(span, method, path string, body, out any) (time.Duration, bool) {
	cl.ops.attempted++
	cl.reqs++
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			cl.ops.fail("%s %s: encode: %v", method, path, err)
			return 0, false
		}
	}
	req, err := http.NewRequest(method, cl.base+path, bytes.NewReader(payload))
	if err != nil {
		cl.ops.fail("%s %s: %v", method, path, err)
		return 0, false
	}
	req.Header.Set("Content-Type", "application/json")

	id := -1
	if cl.rec != nil {
		id = cl.rec.begin(span, -1, cl.reqs)
	}
	t0 := time.Now()
	status, data, err := cl.roundTrip(req)
	dt := time.Since(t0)
	if id >= 0 {
		cl.rec.end(id)
	}

	if status == http.StatusTooManyRequests {
		cl.n429++
	}
	if err != nil || status < 200 || status > 299 {
		cl.ops.fail("%s %s: status %d err %v body %.120s", method, path, status, err, data)
		return dt, false
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			cl.ops.fail("%s %s: decode: %v", method, path, err)
			return dt, false
		}
	}
	return dt, true
}

func (cl *ecoClient) roundTrip(req *http.Request) (int, []byte, error) {
	resp, err := cl.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// ecoSession is the client's view of one daemon session: the mirror
// chip the deltas are drawn against, the generation token, and — in
// the traced run — a direct bonnroute.Session fed the same deltas.
type ecoSession struct {
	name   string
	index  int
	seed   int64
	params chip.GenParams
	mirror *chip.Chip
	gen    uint64
	last   bonnroute.ResultSummary

	// Traced run only: the direct mirror, the outcome and the wall time
	// of its initial route (the façade sample of the stage ledger).
	direct  *bonnroute.Session
	initial bonnroute.ResultSummary
	facade  time.Duration
}

func sameOutcome(a, b bonnroute.ResultSummary) bool {
	return a.Nets == b.Nets && a.Netlength == b.Netlength && a.Vias == b.Vias &&
		a.Errors == b.Errors && a.Unrouted == b.Unrouted
}

// ecoStream is one pass over the ECO stream and what it measured.
type ecoStream struct {
	w    *workload
	seed int64
	sz   sizing
	cl   *ecoClient
	o    *ops
	rec  *recorder

	sessions  []*ecoSession
	setup     []float64 // seconds per session creation, daemon start included
	rerouteMS []float64
	assessMS  []float64
	resultMS  []float64
	directMS  []float64 // traced run: the same deltas through a direct Session
	rssMB     []float64 // peak resident set per iteration
	loopS     float64   // summed wall time of the iterations
	committed int
	eco       []bonnroute.EcoStats
	q         quality
}

// runEcoStream starts an in-process daemon behind a real loopback
// listener, creates sz.chips sessions and drives sz.iters iterations
// per session, round-robin. With a recorder it is the traced run:
// every request gets a span and every session a direct mirror.
func runEcoStream(w *workload, seed int64, sz sizing, o *ops, rec *recorder) *ecoStream {
	t0 := time.Now()
	srv := service.New(service.Config{MaxInFlight: 2})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	es := &ecoStream{w: w, seed: seed, sz: sz, o: o, rec: rec,
		cl: &ecoClient{base: ts.URL, hc: ts.Client(), ops: o, rec: rec}}
	daemonS := time.Since(t0).Seconds()

	es.createSessions(daemonS)
	for j := 0; j < sz.iters; j++ {
		for _, s := range es.sessions {
			// The memory housekeeping is not part of the iteration's
			// wall time; everything the client does for it is.
			beginOpMemory()
			t0 := time.Now()
			es.iterate(s, j)
			es.loopS += time.Since(t0).Seconds()
			es.rssMB = append(es.rssMB, peakRSSMB())
		}
	}
	for _, s := range es.sessions {
		es.q.addSummary(s.mirror, s.last)
	}
	return es
}

// portfolioSeed draws the session chips of the ECO workload. They are
// the same for every --seed: the seed draws the delta streams. An ECO
// reroute costs what preparation and cleanup cost on its chip — 0.3 to
// 1.2 s from one 60-net chip to the next, whatever the delta — and a
// run can afford a handful of sessions, so with seeded chips the
// reroute median spread by a third from seed to seed and said which
// chips were drawn, not how fast the engine is. The portfolio is the
// installed base; the changes against it are what varies.
const portfolioSeed = 11

// createSessions picks the portfolio's chips and creates one session on
// each; every creation is a set-up sample. In the traced run each
// session also gets its direct mirror.
func (es *ecoStream) createSessions(daemonS float64) {
	t0 := time.Now()
	chips, seeds := es.w.pickChips(portfolioSeed, es.sz.chips, es.sz.nets)
	pickS := time.Since(t0).Seconds() / float64(len(chips))
	for i, c := range chips {
		t0 := time.Now()
		s := es.createSession(i, seeds[i], c)
		es.setup = append(es.setup, daemonS+pickS+time.Since(t0).Seconds())
		if s != nil && (es.rec == nil || es.mirrorCreate(s)) {
			es.sessions = append(es.sessions, s)
		}
	}
}

// createSession posts one session (the daemon generates the same chip
// from its parameters and routes it before it replies); mirror is the
// client's copy of the chip.
func (es *ecoStream) createSession(i int, cs int64, mirror *chip.Chip) *ecoSession {
	w := es.w
	s := &ecoSession{name: fmt.Sprintf("s%d", i), index: i, seed: cs, params: w.family(cs, es.sz.nets), mirror: mirror}
	var reply sessionReply
	_, ok := es.cl.call("service.create", "POST", "/sessions", createRequest{
		Name: s.name, Chip: chipWire(s.params),
		Options: service.OptionsWire{Seed: cs, Workers: w.numWorkers()},
	}, &reply)
	if !ok {
		return nil
	}
	if reply.Generation != 1 || reply.Summary.Nets != len(s.mirror.Nets) {
		es.o.fail("session %s: generation %d nets %d, mirror has %d nets",
			s.name, reply.Generation, reply.Summary.Nets, len(s.mirror.Nets))
		return nil
	}
	s.gen, s.last = reply.Generation, reply.Summary
	return s
}

// mirrorCreate routes the session's chip through a direct
// bonnroute.Session, as the daemon did, and requires the same outcome.
func (es *ecoStream) mirrorCreate(s *ecoSession) bool {
	es.o.attempted++
	var direct *bonnroute.Session
	var rerr error
	beginOpMemory()
	id := es.rec.begin("flow.route", -1, s.index)
	err := guarded(func() {
		direct, rerr = bonnroute.NewSession(context.Background(), chip.Generate(s.params),
			bonnroute.WithSeed(s.seed), bonnroute.WithWorkers(es.w.numWorkers()))
	})
	s.facade = es.rec.end(id)
	if err != nil || rerr != nil {
		es.o.fail("session %s: direct mirror: %v %v", s.name, err, rerr)
		return false
	}
	s.initial = bonnroute.Summarize(direct.Result())
	if !sameOutcome(s.initial, s.last) {
		es.o.fail("session %s: direct initial route differs from the daemon's", s.name)
		return false
	}
	s.direct = direct
	return true
}

// iterate is one closed-loop iteration against one session: sz.assess
// what-if assessments that are never applied, one committed reroute
// with the optimistic generation token, one result fetch.
func (es *ecoStream) iterate(s *ecoSession, j int) {
	cl, o := es.cl, es.o
	for k := 0; k < es.sz.assess; k++ {
		d := incremental.RandomDelta(s.mirror, mixSeed(es.seed, 100+s.index, j*64+k), ecoDelta)
		var ar service.AssessResponse
		if dt, ok := cl.call("service.assess", "POST", "/sessions/"+s.name+"/assess", assessRequest{Delta: d}, &ar); ok {
			es.assessMS = append(es.assessMS, ms(dt))
			if ar.Generation != s.gen {
				o.fail("assess %s: generation %d, want %d", s.name, ar.Generation, s.gen)
			}
		}
	}

	d := incremental.RandomDelta(s.mirror, mixSeed(es.seed, 200+s.index, j), ecoDelta)
	next, _, err := incremental.Apply(s.mirror, &d)
	if err != nil {
		o.attempted++
		o.fail("delta %s/%d does not apply to the mirror: %v", s.name, j, err)
		return
	}
	var rr sessionReply
	dt, ok := cl.call("service.reroute", "POST", "/sessions/"+s.name+"/reroute",
		rerouteRequest{FromGeneration: s.gen, Delta: d}, &rr)
	if !ok {
		return
	}
	if rr.NoOp || rr.Eco == nil || rr.Generation != s.gen+1 || rr.Summary.Nets != len(next.Nets) {
		o.fail("reroute %s/%d: generation %d→%d no_op %v nets %d (mirror %d)",
			s.name, j, s.gen, rr.Generation, rr.NoOp, rr.Summary.Nets, len(next.Nets))
		return
	}
	es.rerouteMS = append(es.rerouteMS, ms(dt))
	es.eco = append(es.eco, *rr.Eco)
	es.committed++
	s.mirror, s.gen, s.last = next, rr.Generation, rr.Summary

	var res sessionReply
	if dt, ok := cl.call("service.result", "GET", "/sessions/"+s.name+"/result", nil, &res); ok {
		es.resultMS = append(es.resultMS, ms(dt))
		if res.Generation != s.gen || !sameOutcome(res.Summary, s.last) {
			o.fail("result %s/%d: does not match the reroute reply", s.name, j)
		}
	}
	if es.rec != nil {
		es.mirrorReroute(s, j, d)
	}
}

// mirrorReroute feeds the delta the daemon just committed to the
// session's direct mirror, times it, and requires the same outcome.
func (es *ecoStream) mirrorReroute(s *ecoSession, j int, d bonnroute.Delta) {
	es.o.attempted++
	var res *bonnroute.Result
	var rerr error
	id := es.rec.begin("incremental.reroute", -1, es.cl.reqs)
	err := guarded(func() {
		res, _, _, rerr = s.direct.RerouteAt(context.Background(), s.direct.Generation(), d)
	})
	dt := es.rec.end(id)
	switch {
	case err != nil || rerr != nil:
		es.o.fail("direct reroute %s/%d: %v %v", s.name, j, err, rerr)
	case !sameOutcome(bonnroute.Summarize(res), s.last):
		es.o.fail("direct reroute %s/%d: outcome differs from the daemon's", s.name, j)
	default:
		es.directMS = append(es.directMS, ms(dt))
	}
}

func (q *quality) addSummary(c *chip.Chip, s bonnroute.ResultSummary) {
	q.add(c, s.Errors, s.Vias, func(ni int) (bool, int64) {
		return s.PerNet[ni].Routed, s.PerNet[ni].Length
	})
}

// runEco is the untraced run of the service workload.
func runEco(w *workload, seed int64, sz sizing) (*metrics, ops, runInfo) {
	m := newMetrics(endToEnd)
	var o ops
	// The warm-up chip goes through the façade once, as in the bulk
	// workloads, so the first session does not pay for cold code.
	bonnroute.Route(context.Background(), chip.Generate(warmupParams()), bonnroute.WithSeed(1))
	es := runEcoStream(w, seed, sz, &o, nil)

	m.set("setup_s", median(es.setup))
	m.set("op_p50_ms", median(es.rerouteMS))
	m.set("throughput_per_s", ratio(float64(es.committed), es.loopS))
	m.set("peak_rss_mb", median(es.rssMB))
	es.q.emit(m)
	return m, o, runInfo{
		Samples: map[string]int{"setup_s": len(es.setup), "op_p50_ms": len(es.rerouteMS),
			"assess": len(es.assessMS)},
		Counts: es.q.counts(),
	}
}
