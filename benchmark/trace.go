package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// query share Query; Parent is the ID of the enclosing span (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the whole run; write dumps them once at
// the end. Safe for concurrent use (serve-mix has two clients).
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, query, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Query: query, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// begin opens a span; its end time is set by finish.
func (t *tracer) begin(name string, query, parent int) int {
	now := time.Now()
	return t.record(name, query, parent, now, now)
}

// finish closes span id now and returns its duration.
func (t *tracer) finish(id int) time.Duration {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now.Sub(t.epoch).Nanoseconds()
	return s.dur()
}

// millis returns the durations, in milliseconds, of every span named name.
func (t *tracer) millis(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
