package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Parent is the id of the span that caused it (0 for a root),
// Req groups the spans of one request, experiment or probe.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so untimed and timed code share
// one path and the timed runs pay nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(parent int, layer, name, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Req: req, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// covered returns the total length of the union of ivs.
func covered(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		if open && iv.lo <= cur.hi {
			if iv.hi > cur.hi {
				cur.hi = iv.hi
			}
			continue
		}
		if open {
			total += cur.hi - cur.lo
		}
		cur, open = iv, true
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTimes sums, per layer, each span's duration minus the part of
// its interval covered by its children (children clipped to the
// parent, overlapping children counted once).
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		var clipped []interval
		for _, c := range kids[s.ID] {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			clipped = append(clipped, interval{lo, hi})
		}
		out[s.Layer] += (s.End - s.Start) - covered(clipped)
	}
	return out
}
