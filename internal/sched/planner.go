package sched

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/matching"
)

// pairEntry is one memoized joint-transmission cost: the float slot time
// plus mode/power-scale for schedule construction, and the quantized
// nanosecond cost handed to the matcher.
type pairEntry struct {
	t     float64
	mode  Mode
	scale float64
	ns    int64
}

// greedyCand is one candidate pair for greedy selection.
type greedyCand struct {
	i, j  int
	t     float64
	mode  Mode
	scale float64
}

// candByTime orders greedy candidates by slot time. slices.SortFunc runs
// the same pdqsort as sort.Slice and consults only cmp < 0, so this sorts
// exactly as less = a.t < b.t did, ties included, without sort.Slice's
// reflection and closure allocations.
func candByTime(a, b greedyCand) int {
	switch {
	case a.t < b.t:
		return -1
	case a.t > b.t:
		return 1
	}
	return 0
}

// PlanStats counts how a Planner's matcher solves ran; the scheduling
// daemon exports the delta per query as reuse metrics.
type PlanStats struct {
	// Cold counts optimal solves that ran from scratch (first query for an
	// AP, client-set change, or a warm-start fallback inside the matcher).
	Cold int
	// Warm counts optimal solves resumed from the previous solution.
	Warm int
}

// Planner is the reusable form of the scheduler: it memoizes each client's
// solo airtime and the full pair-cost table across queries, and holds the
// matching engine so consecutive solves for the same client population
// reuse buffers — and, when only SNRs drifted, warm-start from the
// previous matching. Hold one for warm repeated queries, as the
// scheduling daemon does per AP. The one-shot entry points (New, Greedy)
// run on pooled Planners instead, but always rebuild and solve cold, so
// their results never depend on an earlier call.
//
// A Planner is not safe for concurrent use. Its cached table is keyed on
// the client ID sequence: a query whose IDs match the previous query's
// (same order, same length) reuses the table, recomputing only rows whose
// SNR changed; anything else rebuilds from scratch.
type Planner struct {
	opts   Options
	solver matching.Solver

	n       int         // client count of the cached table
	size    int         // matcher vertex count: n, or n+1 when n is odd
	ids     []string    // client IDs the table was built for
	snr     []float64   // SNRs the table was built for
	solo    []float64   // per-client solo airtime, [n]
	pair    []pairEntry // flat [size*size], upper triangle i < j
	changed []int       // scratch: indices whose SNR moved this query

	haveTable bool

	cands []greedyCand // scratch for PlanGreedy
	used  []bool       // scratch for PlanGreedy

	stats PlanStats
}

// NewPlanner returns a Planner computing costs under o. The options are
// fixed for the Planner's lifetime — they are part of the cached table's
// identity.
func NewPlanner(o Options) *Planner { return &Planner{opts: o} }

// Stats returns cumulative solve counters since the Planner was created.
func (p *Planner) Stats() PlanStats { return p.stats }

// soloTimes fills dst (when non-nil) with each client's interference-free
// airtime and returns the serial baseline. A client with zero achievable
// rate — +Inf airtime — is rejected here, so every scheduler entry point
// (optimal, greedy, serial) fails identically instead of some of them
// silently emitting +Inf slot times.
func soloTimes(dst []float64, clients []Client, o Options) (float64, error) {
	var baseline float64
	for i, c := range clients {
		t := soloTime(c, o)
		if math.IsInf(t, 1) {
			return 0, fmt.Errorf("sched: client %d (%q) cannot reach the AP at any rate", i, c.ID)
		}
		baseline += t
		if dst != nil {
			dst[i] = t
		}
	}
	return baseline, nil
}

// prepare runs the shared validation path and refreshes the solo-time
// cache, returning the serial baseline.
func (p *Planner) prepare(clients []Client) (float64, error) {
	if err := validateInputs(clients, p.opts); err != nil {
		return 0, err
	}
	n := len(clients)
	if n > cap(p.solo) {
		p.solo = make([]float64, n)
	}
	return soloTimes(p.solo[:n], clients, p.opts)
}

// tableFor brings the pair-cost table and the matcher's cost matrix in
// sync with clients: incrementally when the client IDs match the cached
// table (recomputing only rows whose SNR moved), from scratch otherwise.
func (p *Planner) tableFor(ctx context.Context, clients []Client) error {
	n := len(clients)
	same := p.haveTable && p.n == n
	if same {
		for i := range clients {
			if p.ids[i] != clients[i].ID {
				same = false
				break
			}
		}
	}
	if !same {
		return p.rebuild(ctx, clients)
	}
	p.changed = p.changed[:0]
	for i := range clients {
		if p.snr[i] != clients[i].SNR {
			p.changed = append(p.changed, i)
		}
	}
	if err := p.applyChanges(ctx, clients); err != nil {
		// A half-applied update leaves table rows and the SNR snapshot out
		// of sync; force the next query to rebuild.
		p.haveTable = false
		return err
	}
	return nil
}

// applyChanges recomputes the table rows of every client whose SNR moved.
func (p *Planner) applyChanges(ctx context.Context, clients []Client) error {
	n := len(clients)
	for _, i := range p.changed {
		p.snr[i] = clients[i].SNR
		if err := ctx.Err(); err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if err := p.setPair(clients, i, j); err != nil {
				return err
			}
		}
		if p.size > n {
			if err := p.setDummy(clients, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// rebuild recomputes the whole table and resets the matcher.
func (p *Planner) rebuild(ctx context.Context, clients []Client) error {
	n := len(clients)
	size := n + n%2
	p.haveTable = false
	p.n, p.size = n, size
	if n > cap(p.ids) {
		p.ids = make([]string, n)
		p.snr = make([]float64, n)
	}
	p.ids, p.snr = p.ids[:n], p.snr[:n]
	if size*size > cap(p.pair) {
		p.pair = make([]pairEntry, size*size)
	}
	p.pair = p.pair[:size*size]
	for i := range clients {
		p.ids[i] = clients[i].ID
		p.snr[i] = clients[i].SNR
	}
	if err := p.solver.Reset(size); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for j := i + 1; j < n; j++ {
			if err := p.setPair(clients, i, j); err != nil {
				return err
			}
		}
		if size > n {
			if err := p.setDummy(clients, i); err != nil {
				return err
			}
		}
	}
	p.haveTable = true
	return nil
}

// setPair recomputes the joint cost of clients i and j and pushes it into
// the table and the matcher. It reads their solo airtimes from the cache
// prepare has just filled for clients.
func (p *Planner) setPair(clients []Client, i, j int) error {
	if i > j {
		i, j = j, i
	}
	t, mode, scale := pairCost(clients[i], clients[j], p.solo[i], p.solo[j], p.opts)
	ns, err := costNanos(t)
	if err != nil {
		return fmt.Errorf("pair (%q, %q): %w", clients[i].ID, clients[j].ID, err)
	}
	p.pair[i*p.size+j] = pairEntry{t: t, mode: mode, scale: scale, ns: ns}
	return p.solver.SetCost(i, j, ns)
}

// setDummy refreshes client i's edge to the odd-count dummy vertex, whose
// cost is the client's solo airtime.
func (p *Planner) setDummy(clients []Client, i int) error {
	t := p.solo[i]
	ns, err := costNanos(t)
	if err != nil {
		return fmt.Errorf("client %q solo: %w", clients[i].ID, err)
	}
	p.pair[i*p.size+p.n] = pairEntry{t: t, mode: ModeSolo, scale: 1, ns: ns}
	return p.solver.SetCost(i, p.n, ns)
}

// Plan computes the optimal schedule for clients, reusing every cache the
// Planner holds. It is New's engine: same validation, same schedule,
// same errors — plus warm-started matching when only SNRs moved since the
// previous query.
func (p *Planner) Plan(ctx context.Context, clients []Client) (Schedule, error) {
	baseline, err := p.prepare(clients)
	if err != nil {
		return Schedule{}, err
	}
	n := len(clients)
	if n == 1 {
		t := p.solo[0]
		return Schedule{
			Slots:          []Slot{{A: 0, B: -1, Mode: ModeSolo, WeakScale: 1, Time: t}},
			Total:          t,
			SerialBaseline: baseline,
		}, nil
	}
	if err := p.tableFor(ctx, clients); err != nil {
		return Schedule{}, err
	}
	warm := p.solver.CanWarm()
	if _, err := p.solver.Warm(ctx); err != nil {
		return Schedule{}, fmt.Errorf("sched: matching failed: %w", err)
	}
	if warm {
		p.stats.Warm++
	} else {
		p.stats.Cold++
	}

	mate := p.solver.Mates()
	slots := make([]Slot, 0, (n+1)/2) // a perfect matching on n + n%2 vertices
	var total float64
	for i := 0; i < n; i++ {
		m := mate[i]
		if m < i {
			continue // already emitted
		}
		if m >= n {
			t := p.solo[i]
			slots = append(slots, Slot{A: i, B: -1, Mode: ModeSolo, WeakScale: 1, Time: t})
			total += t
			continue
		}
		e := p.pair[i*p.size+m]
		slots = append(slots, Slot{A: i, B: m, Mode: e.mode, WeakScale: e.scale, Time: e.t})
		total += e.t
	}
	return Schedule{Slots: slots, Total: total, SerialBaseline: baseline}, nil
}

// PlanGreedy computes a best-pair-first greedy schedule from the same
// memoized cost table Plan uses — the daemon's middle rung, which after a
// cancelled optimal solve reuses the table that solve already built.
func (p *Planner) PlanGreedy(ctx context.Context, clients []Client) (Schedule, error) {
	baseline, err := p.prepare(clients)
	if err != nil {
		return Schedule{}, err
	}
	if err := p.tableFor(ctx, clients); err != nil {
		return Schedule{}, err
	}
	n := len(clients)
	p.cands = p.cands[:0]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e := p.pair[i*p.size+j]
			p.cands = append(p.cands, greedyCand{i: i, j: j, t: e.t, mode: e.mode, scale: e.scale})
		}
	}
	slices.SortFunc(p.cands, candByTime)

	if n > cap(p.used) {
		p.used = make([]bool, n)
	}
	p.used = p.used[:n]
	for i := range p.used {
		p.used[i] = false
	}
	// On the complete graph greedy pairs every client but at most one.
	slots := make([]Slot, 0, (n+1)/2)
	var total float64
	for _, c := range p.cands {
		if p.used[c.i] || p.used[c.j] {
			continue
		}
		p.used[c.i], p.used[c.j] = true, true
		slots = append(slots, Slot{A: c.i, B: c.j, Mode: c.mode, WeakScale: c.scale, Time: c.t})
		total += c.t
	}
	for i := 0; i < n; i++ {
		if !p.used[i] {
			t := p.solo[i]
			slots = append(slots, Slot{A: i, B: -1, Mode: ModeSolo, WeakScale: 1, Time: t})
			total += t
		}
	}
	return Schedule{Slots: slots, Total: total, SerialBaseline: baseline}, nil
}
