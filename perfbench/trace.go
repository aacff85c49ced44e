package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the ID of the span that
// caused it (-1 for a root); spans of one request or utterance share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span starting now.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, req, time.Now(), time.Time{})
}

// add records a span with explicit bounds (a zero end leaves it open) and
// returns its ID.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start.Sub(t.t0))}
	if !end.IsZero() {
		s.End = int64(end.Sub(t.t0))
	}
	t.spans = append(t.spans, s)
	return id
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTime is the spans of one name: how many, and their summed self
// time (duration minus the part covered by child spans).
type layerTime struct {
	n    int
	self time.Duration
}

// selfTimes aggregates self time by span name. Children of one parent do
// not overlap in this benchmark (each layer call is sequential inside its
// parent), so a parent's covered time is the sum of its children's
// durations, clipped to the parent.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		self := s.End - s.Start - child[i]
		if self < 0 {
			self = 0
		}
		lt := out[s.Name]
		lt.n++
		lt.self += time.Duration(self)
		out[s.Name] = lt
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
