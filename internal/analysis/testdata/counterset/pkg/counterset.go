// Corpus for the counterset analyzer: synchronisation state moves by
// pointer, never by value.
package cscorpus

import (
	"sync"
	"sync/atomic"
)

type guarded struct {
	mu sync.Mutex
	n  int
}

// counterSet is a fixed-name counter set: its atomics live behind a slice
// field, so copying the struct shares them instead of forking them.
type counterSet struct {
	names []string
	vals  []atomic.Int64
}

func (c *counterSet) String() string { return "" }

type metrics struct {
	hits []atomic.Int64 // one slice field is enough to carry the atomics
}

// Positive: parameters of lock-holding types.
func byValue(g guarded) int { // want "parameter g passes .* by value, copying sync.Mutex"
	return g.n
}

func countersByValue(cs counterSet) string { // want "parameter cs passes cscorpus.counterSet by value, copying atomic.Int64"
	return cs.String()
}

func metricsByValue(m metrics) int { // want "parameter m passes .* by value, copying atomic.Int64"
	return len(m.hits)
}

// Positive: value receivers copy the lock on every call.
func (g guarded) Peek() int { // want "value receiver of .* copies sync.Mutex"
	return g.n
}

// Positive: dereferencing copies.
func deref(p *guarded) {
	g := *p // want "assignment copies .* by value"
	_ = g
}

// Positive: call arguments copy too.
func callArg(p *counterSet) {
	sink(*p) // want "call passes cscorpus.counterSet by value"
}

// Positive: ranging by value copies each element's lock.
func rangeCopy(gs []guarded) int {
	total := 0
	for _, g := range gs { // want "range copies .* elements by value"
		total += g.n
	}
	return total
}

// Negative: pointers share instead of forking.
func byPointer(g *guarded) int { return g.n }

func (g *guarded) Bump() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

// Negative: a bare slice parameter copies no elements.
func sliceParam(gs []guarded) int {
	if len(gs) == 0 {
		return 0
	}
	return gs[0].n
}

// Negative: constructing a value is not copying one.
func construct() *guarded {
	g := guarded{n: 1}
	return &g
}

func sink(v any) { _ = v }
