package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one bench-owned interval around a call into a layer of the
// routed program. Op groups the spans of one operation (a chip index or
// a request index); Parent is -1 for a root. Times are nanoseconds
// since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. It is used from
// the single benchmark goroutine only, so it needs no lock.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent, op int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(r.epoch))})
	return id
}

func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id]
	s.End = int64(time.Since(r.epoch))
	return s.duration()
}

// elapsed is how long an open span has been running.
func (r *recorder) elapsed(id int) time.Duration {
	return time.Since(r.epoch) - time.Duration(r.spans[id].Start)
}

// time runs fn inside a span and returns its duration.
func (r *recorder) time(name string, parent, op int, fn func()) time.Duration {
	id := r.begin(name, parent, op)
	fn()
	return r.end(id)
}

// selfTimes sums, by name, each span's duration minus the part of it
// its direct children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(r.spans))
	for i := range r.spans {
		if s := &r.spans[i]; s.Parent >= 0 {
			child[s.Parent] += s.duration()
		}
	}
	out := map[string]time.Duration{}
	for i := range r.spans {
		out[r.spans[i].Name] += r.spans[i].duration() - child[i]
	}
	return out
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
