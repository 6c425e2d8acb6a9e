package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// simulator. Spans of one cell or epoch share a Group; Parent links a
// call to the span that caused it (0 for a root span).
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Group    string             `json:"group"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans and counters in memory for the traced run; they are
// written out once, at exit. A nil *tracer records nothing, so untraced
// runs pay one nil check per call site.
type tracer struct {
	origin   time.Time
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counters: map[string]float64{}}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, group string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name,
		StartNs: time.Since(t.origin).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = time.Since(t.origin).Nanoseconds()
}

// note attaches a counter reading to a span, and adds it to the run-wide
// total of the same name.
func (t *tracer) note(id int, name string, v float64) {
	if t == nil {
		return
	}
	if id != 0 {
		s := &t.spans[id-1]
		if s.Counters == nil {
			s.Counters = map[string]float64{}
		}
		s.Counters[name] += v
	}
	t.counters[name] += v
}

// peak raises a run-wide high-water counter.
func (t *tracer) peak(name string, v float64) {
	if t != nil && v > t.counters[name] {
		t.counters[name] = v
	}
}

// durationsMs returns the durations of every closed span with the name.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= s.StartNs {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace: %w", err)
	}
	return nil
}
