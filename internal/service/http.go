package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bonnroute"
	"bonnroute/internal/obs"
)

// ChipWire is the JSON form of the synthetic chip parameters a session
// is created from (chip.GenParams; zero fields take that type's
// defaults).
type ChipWire struct {
	Name              string `json:"name,omitempty"`
	Seed              int64  `json:"seed,omitempty"`
	Rows              int    `json:"rows,omitempty"`
	Cols              int    `json:"cols,omitempty"`
	NumLayers         int    `json:"num_layers,omitempty"`
	Pitch             int    `json:"pitch,omitempty"`
	NumNets           int    `json:"num_nets,omitempty"`
	MaxDegree         int    `json:"max_degree,omitempty"`
	Utilization       int    `json:"utilization,omitempty"`
	LocalityRadius    int    `json:"locality_radius,omitempty"`
	PowerStripePeriod int    `json:"power_stripe_period,omitempty"`
	WideNetPct        int    `json:"wide_net_pct,omitempty"`
	CriticalPct       int    `json:"critical_pct,omitempty"`
}

func (c ChipWire) params() bonnroute.ChipParams {
	return bonnroute.ChipParams{
		Name: c.Name, Seed: c.Seed, Rows: c.Rows, Cols: c.Cols,
		NumLayers: c.NumLayers, Pitch: c.Pitch, NumNets: c.NumNets,
		MaxDegree: c.MaxDegree, Utilization: c.Utilization,
		LocalityRadius: c.LocalityRadius, PowerStripePeriod: c.PowerStripePeriod,
		WideNetPct: c.WideNetPct, CriticalPct: c.CriticalPct,
	}
}

// OptionsWire is the JSON form of the routing options pinned by a
// session: the options struct itself, whose tags declare the wire names.
// Unknown keys are ignored, so older clients that still send retired
// options keep working.
type OptionsWire = bonnroute.Options

type createRequest struct {
	// Name identifies the session; empty auto-assigns s1, s2, ...
	Name    string      `json:"name,omitempty"`
	Chip    ChipWire    `json:"chip"`
	Options OptionsWire `json:"options,omitempty"`
	// Stream switches the response to a server-sent-events progress
	// stream (also triggered by Accept: text/event-stream).
	Stream bool `json:"stream,omitempty"`
	// TimeoutMS bounds the routing flow; 0 means no server-side bound
	// (the request context still applies).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

type createResponse struct {
	Name       string                  `json:"name"`
	Generation uint64                  `json:"generation"`
	Summary    bonnroute.ResultSummary `json:"summary"`
	// DroppedTraceRecords counts progress records the SSE buffer shed
	// because the client read too slowly (streaming creates only).
	DroppedTraceRecords int64 `json:"dropped_trace_records,omitempty"`
}

type rerouteRequest struct {
	// FromGeneration is the optimistic concurrency token: the result
	// generation the delta was built against. Non-zero and stale →
	// 409 with the current generation; 0 skips the check.
	FromGeneration uint64          `json:"from_generation,omitempty"`
	Delta          bonnroute.Delta `json:"delta"`
	TimeoutMS      int             `json:"timeout_ms,omitempty"`
}

type rerouteResponse struct {
	Generation uint64                  `json:"generation"`
	NoOp       bool                    `json:"no_op,omitempty"`
	Eco        *bonnroute.EcoStats     `json:"eco,omitempty"`
	Summary    bonnroute.ResultSummary `json:"summary"`
}

type assessRequest struct {
	Delta bonnroute.Delta `json:"delta"`
}

type resultResponse struct {
	Name       string                  `json:"name"`
	Generation uint64                  `json:"generation"`
	Summary    bonnroute.ResultSummary `json:"summary"`
	Eco        *bonnroute.EcoStats     `json:"eco,omitempty"`
}

type sessionMeta struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
	Nets       int    `json:"nets"`
	Creating   bool   `json:"creating,omitempty"`
}

type errorResponse struct {
	Error      string `json:"error"`
	Generation uint64 `json:"generation,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /sessions", s.handleCreate)
	mux.HandleFunc("GET /sessions", s.handleList)
	mux.HandleFunc("GET /sessions/{name}", s.handleMeta)
	mux.HandleFunc("GET /sessions/{name}/result", s.handleResult)
	mux.HandleFunc("POST /sessions/{name}/reroute", s.handleReroute)
	mux.HandleFunc("POST /sessions/{name}/assess", s.handleAssess)
	mux.HandleFunc("DELETE /sessions/{name}", s.handleDelete)
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.isClosed() {
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"sessions": len(s.names()),
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var metas []sessionMeta
	for _, name := range s.names() {
		if ss := s.lookup(name); ss != nil {
			metas = append(metas, ss.meta())
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": metas})
}

func (ss *session) meta() sessionMeta {
	m := sessionMeta{Name: ss.name}
	if sess := ss.sess.Load(); sess != nil {
		res, _, gen := sess.Snapshot()
		m.Generation = gen
		m.Nets = len(res.Chip.Nets)
	} else {
		m.Creating = true
	}
	return m
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	ss := s.lookup(r.PathValue("name"))
	if ss == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	writeJSON(w, http.StatusOK, ss.meta())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	ss := s.lookup(r.PathValue("name"))
	if ss == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	sess := ss.sess.Load()
	if sess == nil {
		writeError(w, http.StatusConflict, "session still being created")
		return
	}
	res, eco, gen := sess.Snapshot()
	writeJSON(w, http.StatusOK, resultResponse{
		Name: ss.name, Generation: gen,
		Summary: bonnroute.Summarize(res), Eco: eco,
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	_, ok := s.sessions[name]
	delete(s.sessions, name)
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func validSessionName(n string) bool {
	return n != "" && len(n) <= 128 && !strings.ContainsAny(n, "/ \t\n")
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Name != "" && !validSessionName(req.Name) {
		writeError(w, http.StatusBadRequest, "bad session name")
		return
	}

	// Reserve the name before routing so a concurrent create of the
	// same name conflicts now, not after minutes of routing.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	name := req.Name
	if name == "" {
		for {
			s.nextID++
			name = fmt.Sprintf("s%d", s.nextID)
			if _, taken := s.sessions[name]; !taken {
				break
			}
		}
	} else if _, taken := s.sessions[name]; taken {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "session exists")
		return
	}
	ss := &session{name: name}
	s.sessions[name] = ss
	s.mu.Unlock()
	committed := false
	defer func() {
		if !committed {
			s.mu.Lock()
			if s.sessions[name] == ss {
				delete(s.sessions, name)
			}
			s.mu.Unlock()
		}
	}()

	ctx, cancel := s.flowContext(r, req.TimeoutMS)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		s.writeAdmitError(w, err)
		return
	}
	defer release()
	if s.cfg.BeforeRoute != nil {
		s.cfg.BeforeRoute("create")
	}

	c := bonnroute.GenerateChip(req.Chip.params())
	opt := req.Options

	if req.Stream || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		committed = s.createStreaming(ctx, w, ss, c, opt)
		return
	}

	sess, err := bonnroute.NewSession(ctx, c, bonnroute.WithOptions(opt))
	if err != nil {
		s.writeFlowError(w, err)
		return
	}
	ss.sess.Store(sess)
	committed = true
	res, _, gen := sess.Snapshot()
	writeJSON(w, http.StatusCreated, createResponse{
		Name: name, Generation: gen, Summary: bonnroute.Summarize(res),
	})
}

// createStreaming routes with a streaming tracer attached and renders
// progress as server-sent events: one "trace" event per record (same
// JSON schema as -trace files), then a terminal "done" or "error"
// event. Returns whether the session committed.
func (s *Server) createStreaming(ctx context.Context, w http.ResponseWriter, ss *session, c *bonnroute.Chip, opt bonnroute.Options) bool {
	fl, _ := w.(http.Flusher)
	sink := obs.NewChanSink(s.cfg.StreamBuffer)
	opt.Tracer = obs.New(sink)
	epoch := time.Now()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if fl != nil {
		fl.Flush()
	}

	type outcome struct {
		sess *bonnroute.Session
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		sess, err := bonnroute.NewSession(ctx, c, bonnroute.WithOptions(opt))
		if sess != nil {
			// The streaming sink dies with this request; detach it so
			// later reroutes don't emit into a closed stream.
			sess.SetTracer(nil)
		}
		sink.Close()
		done <- outcome{sess, err}
	}()
	for rec := range sink.Records() {
		data, err := obs.MarshalRecord(&rec, epoch)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "event: trace\ndata: %s\n\n", data)
		if fl != nil {
			fl.Flush()
		}
	}
	out := <-done
	if out.err != nil {
		data, _ := json.Marshal(errorResponse{Error: out.err.Error()})
		fmt.Fprintf(w, "event: error\ndata: %s\n\n", data)
		if fl != nil {
			fl.Flush()
		}
		return false
	}
	ss.sess.Store(out.sess)
	res, _, gen := out.sess.Snapshot()
	data, _ := json.Marshal(createResponse{
		Name: ss.name, Generation: gen, Summary: bonnroute.Summarize(res),
		DroppedTraceRecords: sink.Dropped(),
	})
	fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
	if fl != nil {
		fl.Flush()
	}
	return true
}

func (s *Server) handleReroute(w http.ResponseWriter, r *http.Request) {
	ss := s.lookup(r.PathValue("name"))
	if ss == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	sess := ss.sess.Load()
	if sess == nil {
		writeError(w, http.StatusConflict, "session still being created")
		return
	}
	var req rerouteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if s.isClosed() {
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}

	ctx, cancel := s.flowContext(r, req.TimeoutMS)
	defer cancel()

	// FIFO first: concurrent deltas against one session apply in
	// arrival order, each against the previous one's committed result.
	if err := ss.fifo.Acquire(ctx); err != nil {
		s.writeFlowError(w, err)
		return
	}
	defer ss.fifo.Release()

	// Fail stale tokens fast — before burning an admission slot on a
	// reroute that is doomed to be rejected.
	if req.FromGeneration != 0 {
		if gen := sess.Generation(); req.FromGeneration != gen {
			writeJSON(w, http.StatusConflict, errorResponse{
				Error: "stale generation", Generation: gen,
			})
			return
		}
	}

	release, err := s.admit(ctx)
	if err != nil {
		s.writeAdmitError(w, err)
		return
	}
	defer release()
	if s.cfg.BeforeRoute != nil {
		s.cfg.BeforeRoute("reroute")
	}

	res, st, gen, err := sess.RerouteAt(ctx, req.FromGeneration, req.Delta)
	switch {
	case errors.Is(err, bonnroute.ErrStaleGeneration):
		writeJSON(w, http.StatusConflict, errorResponse{
			Error: "stale generation", Generation: gen,
		})
		return
	case errors.Is(err, bonnroute.ErrCancelled):
		s.writeFlowError(w, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, rerouteResponse{
		Generation: gen, NoOp: st.NoOp, Eco: st,
		Summary: bonnroute.Summarize(res),
	})
}

func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) {
	ss := s.lookup(r.PathValue("name"))
	if ss == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	if ss.sess.Load() == nil {
		writeError(w, http.StatusConflict, "session still being created")
		return
	}
	var req assessRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	resp, err := ss.assess(req.Delta)
	if err != nil {
		if errors.Is(err, errNoAssessment) {
			writeError(w, http.StatusUnprocessableEntity, err.Error())
		} else {
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeAdmitError maps admission failures: capacity → 429 with a
// Retry-After hint, cancelled-while-queued → timeout, shutdown → 503.
func (s *Server) writeAdmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests, "at capacity")
	case errors.Is(err, errShutdown):
		writeError(w, http.StatusServiceUnavailable, "shutting down")
	default:
		s.writeFlowError(w, err)
	}
}

// writeFlowError maps a cancelled or timed-out routing flow: server
// shutdown → 503, request deadline → 504. Nothing was committed either
// way.
func (s *Server) writeFlowError(w http.ResponseWriter, err error) {
	if s.baseCtx.Err() != nil {
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	writeError(w, http.StatusGatewayTimeout, "routing cancelled: "+err.Error())
}
