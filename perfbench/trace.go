package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent indexes the span that caused this one (-1 for a
// root). An aggregate span (count > 1) stands for many calls of one
// layer inside its parent — per-epoch work is recorded that way, one
// span per layer per scenario, since a span per epoch would be
// millions.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Count  int    `json:"count"`
}

// Request-id namespaces, one per span source.
const (
	reqBulk        = 0
	reqInteractive = 1 << 32
	reqLadder      = 2 << 32
	reqEmbedded    = 3 << 32
)

// tracer records spans in memory; a nil tracer records nothing, which
// is how untraced runs measure.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// ns returns the tracer clock (monotonic ns since the trace began).
func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// add records a finished span and returns its index (-1 when off).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time, count int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.ns(start), End: t.ns(end), Parent: parent, Req: req, Count: count})
	return len(t.spans) - 1
}

// addDur records an aggregate span of total duration d starting at
// start.
func (t *tracer) addDur(name string, parent int, req int64, start time.Time, d time.Duration, count int) int {
	return t.add(name, parent, req, start, start.Add(d), count)
}

// setEnd closes a span opened with add(…, start, start, …) once its
// children are recorded.
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = t.ns(end)
	t.mu.Unlock()
}

// summary aggregates spans by name: count, total and self time, where
// self time is a span's duration minus its children's.
func (t *tracer) summary(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		spans, calls int
		total, self  int64
	}
	by := map[string]*agg{}
	for i, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.spans++
		a.calls += s.Count
		a.total += s.End - s.Start
		a.self += s.End - s.Start - child[i]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "trace: %d spans\n", len(t.spans))
	fmt.Fprintf(w, "trace: %-26s %8s %10s %12s %12s\n", "span", "spans", "calls", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "trace: %-26s %8d %10d %12.3f %12.3f\n", n, a.spans, a.calls,
			float64(a.total)/1e6, float64(a.self)/1e6)
	}
}

// write saves every span as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
