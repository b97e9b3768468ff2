package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"time"
)

// traceOpEvery thins the op spans kept per slice: every 61st op of each
// caller is recorded, which bounds the trace file without biasing it (61 is
// prime, so the sample does not lock onto the every-64th-op scans of
// kv-serve-write-scan).
const traceOpEvery = 61

// span is one timed interval. Spans are recorded from the benchmark's own
// files, around its calls into each layer; Parent is the ID of the span that
// caused this one (0: none). Times are ns since the trace began.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. It is used from the
// harness goroutine only. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	e := end.Sub(t.t0).Nanoseconds()
	if e < 0 { // a failed op's latency is +inf; keep the span finite
		e = math.MaxInt64
	}
	t.spans = append(t.spans, span{name, id, parent, start.Sub(t.t0).Nanoseconds(), e})
	return id
}

// open starts a span whose end is set later by done.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) done(id int) {
	if t != nil {
		t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	}
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
