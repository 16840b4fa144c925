package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bonnroute"
	"bonnroute/internal/incremental"
	"bonnroute/internal/verify"
)

// testChip are the synthetic-chip parameters shared by every test; the
// matching local reproduction in the differential test must use the
// same values.
var testChip = ChipWire{Seed: 31, Rows: 4, Cols: 12, NumNets: 28, NumLayers: 4, LocalityRadius: 4}

var tinyChip = ChipWire{Seed: 7, Rows: 3, Cols: 8, NumNets: 12, NumLayers: 3, LocalityRadius: 3}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	Event string
	Data  []byte
}

func parseSSE(t *testing.T, body []byte) []sseEvent {
	t.Helper()
	var events []sseEvent
	for _, block := range strings.Split(string(body), "\n\n") {
		if strings.TrimSpace(block) == "" {
			continue
		}
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				ev.Event = v
			} else if v, ok := strings.CutPrefix(line, "data: "); ok {
				ev.Data = []byte(v)
			}
		}
		if ev.Event == "" {
			t.Fatalf("SSE block without event: %q", block)
		}
		events = append(events, ev)
	}
	return events
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (network pollers etc. wind down asynchronously).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutine leak: %d > baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// TestServiceEndToEnd walks the whole API surface against a live
// httptest server: plain create, streamed create, concurrent reroutes,
// stale-generation rejection, assessment, deletion, graceful shutdown
// — and asserts no goroutines leak once the server is gone.
func TestServiceEndToEnd(t *testing.T) {
	baseline := runtime.NumGoroutine()
	svc := New(Config{MaxInFlight: 2})
	ts := httptest.NewServer(svc)
	client := ts.Client()

	// Plain create.
	resp, body := postJSON(t, client, ts.URL+"/sessions", createRequest{
		Name: "a", Chip: testChip, Options: OptionsWire{Seed: 31},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var created createResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.Name != "a" || created.Generation != 1 || created.Summary.Nets == 0 {
		t.Fatalf("create response: %+v", created)
	}

	// Duplicate name conflicts.
	resp, _ = postJSON(t, client, ts.URL+"/sessions", createRequest{Name: "a", Chip: tinyChip})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d", resp.StatusCode)
	}

	// Streamed create: trace events followed by a terminal done event.
	resp, body = postJSON(t, client, ts.URL+"/sessions", createRequest{
		Name: "b", Chip: tinyChip, Options: OptionsWire{Seed: 7}, Stream: true,
	})
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("streamed create: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	events := parseSSE(t, body)
	if len(events) < 2 {
		t.Fatalf("streamed create produced %d events", len(events))
	}
	var traces, spanNames = 0, map[string]bool{}
	for _, ev := range events[:len(events)-1] {
		if ev.Event != "trace" {
			t.Fatalf("unexpected event %q mid-stream", ev.Event)
		}
		traces++
		var rec struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal(ev.Data, &rec); err != nil {
			t.Fatalf("trace event does not parse: %v: %s", err, ev.Data)
		}
		if rec.Kind == "span_start" {
			spanNames[rec.Name] = true
		}
	}
	if !spanNames["flow.br"] || !spanNames["stage.detail"] {
		t.Fatalf("stream misses flow spans, got %v", spanNames)
	}
	last := events[len(events)-1]
	if last.Event != "done" {
		t.Fatalf("terminal event %q: %s", last.Event, last.Data)
	}
	var streamed createResponse
	if err := json.Unmarshal(last.Data, &streamed); err != nil {
		t.Fatal(err)
	}
	if streamed.Name != "b" || streamed.Generation != 1 {
		t.Fatalf("streamed done: %+v", streamed)
	}

	// Concurrent reroutes serialize and both commit.
	chipA := bonnroute.GenerateChip(testChip.params())
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			delta := bonnroute.RandomDelta(chipA, int64(100+i), bonnroute.EcoGenConfig{})
			resp, body := postJSON(t, client, ts.URL+"/sessions/a/reroute", rerouteRequest{Delta: delta})
			codes[i] = resp.StatusCode
			if resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent reroute %d: %d %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	resp, body = getJSON(t, client, ts.URL+"/sessions/a/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	var result resultResponse
	if err := json.Unmarshal(body, &result); err != nil {
		t.Fatal(err)
	}
	if result.Generation != 3 {
		t.Fatalf("generation after two reroutes = %d, want 3", result.Generation)
	}
	if result.Eco == nil {
		t.Fatal("result misses the last reroute's eco stats")
	}

	// Stale generation token → 409 carrying the current generation.
	delta := bonnroute.RandomDelta(chipA, 200, bonnroute.EcoGenConfig{})
	resp, body = postJSON(t, client, ts.URL+"/sessions/a/reroute", rerouteRequest{
		FromGeneration: 1, Delta: delta,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale reroute: %d %s", resp.StatusCode, body)
	}
	var stale errorResponse
	if err := json.Unmarshal(body, &stale); err != nil {
		t.Fatal(err)
	}
	if stale.Generation != 3 {
		t.Fatalf("stale response generation = %d, want 3", stale.Generation)
	}

	// Assessment answers without routing.
	resp, body = postJSON(t, client, ts.URL+"/sessions/b/assess", assessRequest{
		Delta: bonnroute.RandomDelta(bonnroute.GenerateChip(tinyChip.params()), 5, bonnroute.EcoGenConfig{}),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assess: %d %s", resp.StatusCode, body)
	}
	var assessed AssessResponse
	if err := json.Unmarshal(body, &assessed); err != nil {
		t.Fatal(err)
	}
	if assessed.Generation != 1 || assessed.Before.Edges == 0 || assessed.After.Edges != assessed.Before.Edges {
		t.Fatalf("assess response: %+v", assessed)
	}

	// Listing and deletion.
	resp, body = getJSON(t, client, ts.URL+"/sessions")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"a"`)) || !bytes.Contains(body, []byte(`"b"`)) {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/b", nil)
	dresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	if resp, _ := getJSON(t, client, ts.URL+"/sessions/b"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session still answers: %d", resp.StatusCode)
	}

	// Graceful shutdown: new work refused, nothing leaks.
	svc.Close()
	resp, _ = postJSON(t, client, ts.URL+"/sessions", createRequest{Name: "c", Chip: tinyChip})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create after shutdown: %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, client, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: %d", resp.StatusCode)
	}
	client.CloseIdleConnections()
	ts.Close()
	waitGoroutines(t, baseline)
}

// TestAdmissionControl fills every running slot with gated flows and
// asserts the contract: exactly MaxInFlight flows ever run at once,
// the next request queues and is served when a slot frees, the one
// after that is rejected immediately with 429 + Retry-After, and a
// queued flow whose deadline expires gets 504 without committing.
func TestAdmissionControl(t *testing.T) {
	baseline := runtime.NumGoroutine()
	gate := make(chan struct{})
	var entered atomic.Int32
	svc := New(Config{
		MaxInFlight: 2,
		MaxQueue:    1,
		BeforeRoute: func(string) { entered.Add(1); <-gate },
	})
	ts := httptest.NewServer(svc)
	client := ts.Client()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Two creates occupy both running slots (parked in the gate).
	results := make(chan int, 3)
	for i := 0; i < 2; i++ {
		go func(i int) {
			resp, _ := postJSON(t, client, ts.URL+"/sessions", createRequest{
				Name: fmt.Sprintf("g%d", i), Chip: tinyChip,
			})
			results <- resp.StatusCode
		}(i)
	}
	waitFor("both slots running", func() bool { return entered.Load() == 2 })

	// A queued flow whose deadline expires while waiting gets 504 and
	// commits nothing (both slots are parked, so it must wait).
	resp2, body := postJSON(t, client, ts.URL+"/sessions", createRequest{
		Name: "deadline", Chip: tinyChip, TimeoutMS: 50,
	})
	if resp2.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline-exceeded create: %d %s", resp2.StatusCode, body)
	}
	if resp3, _ := getJSON(t, client, ts.URL+"/sessions/deadline"); resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("timed-out session persisted: %d", resp3.StatusCode)
	}

	// Third admitted into the queue (holds a pending slot, no token).
	go func() {
		resp, _ := postJSON(t, client, ts.URL+"/sessions", createRequest{
			Name: "queued", Chip: tinyChip,
		})
		results <- resp.StatusCode
	}()
	waitFor("third flow queued", func() bool { return svc.pending.Load() == 3 })

	// Fourth overflows pending: immediate 429 with a Retry-After hint.
	data, _ := json.Marshal(createRequest{Name: "rejected", Chip: tinyChip})
	resp, err := client.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if resp4, _ := getJSON(t, client, ts.URL+"/sessions/rejected"); resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("rejected session persisted: %d", resp4.StatusCode)
	}

	// Open the gate: the two running and the one queued flow finish.
	close(gate)
	for i := 0; i < 3; i++ {
		if code := <-results; code != http.StatusCreated {
			t.Fatalf("gated flow %d finished with %d", i, code)
		}
	}
	if hw := svc.RunningHighWater(); hw != 2 {
		t.Fatalf("running high-water = %d, want exactly MaxInFlight = 2", hw)
	}

	svc.Close()
	client.CloseIdleConnections()
	ts.Close()
	waitGoroutines(t, baseline)
}

// TestServiceEcoBitIdentical is the differential test: an ECO applied
// through the daemon (JSON over HTTP, session machinery, admission)
// must produce the bit-identical result of a direct incremental.Reroute
// with the same seed and options.
func TestServiceEcoBitIdentical(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	resp, body := postJSON(t, client, ts.URL+"/sessions", createRequest{
		Name: "diff", Chip: testChip, Options: OptionsWire{Seed: 31},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}

	c := bonnroute.GenerateChip(testChip.params())
	delta := bonnroute.RandomDelta(c, 77, bonnroute.EcoGenConfig{})
	resp, body = postJSON(t, client, ts.URL+"/sessions/diff/reroute", rerouteRequest{
		FromGeneration: 1, Delta: delta,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reroute: %d %s", resp.StatusCode, body)
	}

	// The same flow, directly: route the same chip with the same
	// options, apply the same delta (after a JSON round-trip, to prove
	// the wire encoding loses nothing).
	wire, err := json.Marshal(delta)
	if err != nil {
		t.Fatal(err)
	}
	var delta2 bonnroute.Delta
	if err := json.Unmarshal(wire, &delta2); err != nil {
		t.Fatal(err)
	}
	direct := bonnroute.Route(context.Background(), c, bonnroute.WithSeed(31))
	directEco, _, err := incremental.Reroute(context.Background(), direct, delta2, bonnroute.Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}

	served := svc.lookup("diff").sess.Load().Result()
	if v := verify.CompareResults(served, directEco); len(v) != 0 {
		t.Fatalf("daemon ECO diverges from direct Reroute: %v", v)
	}
}

// TestCreateIgnoresRetiredOptionKeys: a create body from an older client
// that still sends retired option keys routes normally, and the keys
// change nothing.
func TestCreateIgnoresRetiredOptionKeys(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	chipJSON, err := json.Marshal(tinyChip)
	if err != nil {
		t.Fatal(err)
	}
	body := json.RawMessage(`{"name": "old", "chip": ` + string(chipJSON) +
		`, "options": {"seed": 7, "use_pfuture": true, "future_mode": "reduced", "exact_steiner_max": 3}}`)
	resp, out := postJSON(t, ts.Client(), ts.URL+"/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, out)
	}

	direct := bonnroute.Route(context.Background(), bonnroute.GenerateChip(tinyChip.params()), bonnroute.WithSeed(7))
	served := svc.lookup("old").sess.Load().Result()
	if v := verify.CompareResults(served, direct); len(v) != 0 {
		t.Fatalf("retired keys changed the route: %v", v)
	}
}
