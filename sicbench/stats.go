package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile before it
// is reported: a p99 resting on fewer than ten slower samples says more
// about the run than about the system.
const minBeyond = 10

// dist is a sorted sample of one timing.
type dist struct{ sorted []float64 }

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{sorted: s}
}

func (d dist) n() int { return len(d.sorted) }

// median is the middle sample, or the mean of the two middle samples; NaN
// when there are none.
func (d dist) median() float64 {
	n := len(d.sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d.sorted[n/2]
	}
	return (d.sorted[n/2-1] + d.sorted[n/2]) / 2
}

// tail returns the nearest-rank q-quantile and whether at least minBeyond
// samples lie above it; a percentile without that support is not reported.
func (d dist) tail(q float64) (float64, bool) {
	n := len(d.sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return d.sorted[rank-1], n-rank >= minBeyond
}

// String gives the median and every tail percentile the sample supports,
// with the sample count they rest on.
func (d dist) String() string {
	if d.n() == 0 {
		return "no samples"
	}
	out := fmt.Sprintf("p50=%.4g", d.median())
	for _, q := range []struct {
		name string
		q    float64
	}{{"p90", 0.90}, {"p99", 0.99}, {"p99.9", 0.999}} {
		if v, ok := d.tail(q.q); ok {
			out += fmt.Sprintf(" %s=%.4g", q.name, v)
		}
	}
	return out + fmt.Sprintf(" (n=%d)", d.n())
}

// span is one timed harness call into a layer. Parent is the index of the
// enclosing span, -1 for a root; Op groups the spans of one operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose times the caller measured and returns its id.
func (t *tracer) record(name string, parent int, op int64, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(),
		End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
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

// durations returns the lengths in ms of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes returns, for every span named name, its length minus the time
// its child spans cover, in ms. Children of one span never overlap here:
// the harness calls layers one after another.
func selfTimes(spans []span, name string) []float64 {
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-child[i])/1e6)
		}
	}
	return out
}
