package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around that call. Spans of one job share Job; Parent is the
// ID of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durationsWhere returns, in milliseconds, the durations of the spans
// with the given name whose job ID satisfies job (every job when nil).
func (t *tracer) durationsWhere(name string, job func(string) bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (job == nil || job(s.Job)) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// matchJob reports whether a job ID starts with prefix and contains part.
func matchJob(job, prefix, part string) bool {
	return strings.HasPrefix(job, prefix) && strings.Contains(job, part)
}

// selfTimes returns, in milliseconds, each span named root minus the
// time its direct children cover.
func (t *tracer) selfTimes(root string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := make(map[int]int)
	var out []float64
	for _, s := range t.spans {
		if s.Name == root {
			idx[s.ID] = len(out)
			out = append(out, ms(s.dur()))
		}
	}
	for _, s := range t.spans {
		if i, ok := idx[s.Parent]; ok {
			out[i] -= ms(s.dur())
		}
	}
	return out
}

// unexplained returns the share of the named root spans' total time that
// no direct child span covers: end-to-end time no layer span accounts for.
func (t *tracer) unexplained(root string) float64 {
	return ratio(sum(t.selfTimes(root)), sum(t.durationsWhere(root, nil)))
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
