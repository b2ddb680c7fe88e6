package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Group is a fixed set of named monotonic event counters registered as one
// family, each event a labelled series: <name>{<labelKey>="<event>"}. The
// name set is fixed at construction so a typo in a hot path fails fast
// instead of silently minting a new counter; increments are lock-free, and
// every event appears in /metrics, sharing one snapshot path with the
// histograms.
type Group struct {
	names    []string // sorted, for deterministic reporting
	counters []*Counter
	index    map[string]int
}

// Group returns the counter group for name, creating and registering one
// series per event. Duplicate or empty event names panic: the name set is
// a compile-time-style contract, not runtime input.
func (r *Registry) Group(name, help, labelKey string, events ...string) *Group {
	sorted := append([]string(nil), events...)
	sort.Strings(sorted)
	g := &Group{
		names:    sorted,
		counters: make([]*Counter, len(sorted)),
		index:    make(map[string]int, len(sorted)),
	}
	for i, n := range sorted {
		if n == "" {
			panic("obs: empty event name in counter group")
		}
		if _, dup := g.index[n]; dup {
			panic(fmt.Sprintf("obs: duplicate event name %q in counter group", n))
		}
		g.index[n] = i
		g.counters[i] = r.Counter(name, help, Labels{labelKey: n})
	}
	return g
}

// Inc adds 1 to the named event counter.
func (g *Group) Inc(name string) { g.Add(name, 1) }

// Add adds delta to the named event counter. Unknown names panic.
func (g *Group) Add(name string, delta int64) {
	i, ok := g.index[name]
	if !ok {
		panic(fmt.Sprintf("obs: unknown event counter %q", name))
	}
	g.counters[i].Add(delta)
}

// Get returns the current value of the named event counter. Unknown names
// panic.
func (g *Group) Get(name string) int64 {
	i, ok := g.index[name]
	if !ok {
		panic(fmt.Sprintf("obs: unknown event counter %q", name))
	}
	return g.counters[i].Get()
}

// Names returns the event names in sorted order.
func (g *Group) Names() []string {
	return append([]string(nil), g.names...)
}

// Snapshot returns a point-in-time copy of every event counter.
func (g *Group) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(g.names))
	for i, n := range g.names {
		out[n] = g.counters[i].Get()
	}
	return out
}

// String renders the counters as "name=value" pairs in sorted name order —
// a stable format for the daemon's final drain-time dump and for
// byte-identical comparison of deterministic runs.
func (g *Group) String() string {
	var b strings.Builder
	for i, n := range g.names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, g.counters[i].Get())
	}
	return b.String()
}
