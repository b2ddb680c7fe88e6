package sched

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/phy"
)

func plannerClients(rng *rand.Rand, n int) []Client {
	cs := make([]Client, n)
	for i := range cs {
		cs[i] = Client{ID: string(rune('a'+i%26)) + string(rune('0'+i/26)), SNR: phy.FromDB(3 + 30*rng.Float64())}
	}
	return cs
}

var plannerOpts = Options{Channel: phy.Wifi20MHz, PacketBits: 12000}

// schedulesEquivalent compares two schedules slot-for-slot after keying
// them by participant indices; slot order is not part of the contract.
func schedulesEquivalent(t *testing.T, got, want Schedule, tol float64) {
	t.Helper()
	if len(got.Slots) != len(want.Slots) {
		t.Fatalf("slot counts differ: got %d, want %d", len(got.Slots), len(want.Slots))
	}
	key := func(s Slot) [2]int { return [2]int{s.A, s.B} }
	wm := make(map[[2]int]Slot, len(want.Slots))
	for _, s := range want.Slots {
		wm[key(s)] = s
	}
	for _, g := range got.Slots {
		w, ok := wm[key(g)]
		if !ok {
			t.Fatalf("slot %+v missing from reference schedule", g)
		}
		if g.Mode != w.Mode || math.Abs(g.Time-w.Time) > tol || math.Abs(g.WeakScale-w.WeakScale) > tol {
			t.Fatalf("slot mismatch: got %+v, want %+v", g, w)
		}
	}
	if math.Abs(got.Total-want.Total) > tol*float64(len(want.Slots)+1) {
		t.Fatalf("totals differ: got %v, want %v", got.Total, want.Total)
	}
	if math.Abs(got.SerialBaseline-want.SerialBaseline) > tol {
		t.Fatalf("baselines differ: got %v, want %v", got.SerialBaseline, want.SerialBaseline)
	}
}

// TestUnreachableClientRejectedEverywhere is the ladder-rung guard bugfix
// test: a client with zero achievable rate must be rejected by every entry
// point — previously Greedy and Serial silently produced +Inf slot
// times on the daemon's degraded rungs while only New errored.
func TestUnreachableClientRejectedEverywhere(t *testing.T) {
	// A discrete rate table whose floor is 0 below the lowest threshold
	// models a client too weak for any modulation.
	zeroBelow := func(snr float64) float64 {
		if snr >= 1000 {
			return 6e6
		}
		return 0
	}
	opts := Options{Channel: phy.Wifi20MHz, PacketBits: 12000, Rate: zeroBelow}
	clients := []Client{
		{ID: "ok", SNR: 2000},
		{ID: "dead", SNR: 1},
		{ID: "ok2", SNR: 3000},
	}
	ctx := context.Background()
	pl := NewPlanner(opts)
	entries := []struct {
		name string
		run  func() (Schedule, error)
	}{
		{"New", func() (Schedule, error) { return New(ctx, clients, opts) }},
		{"Greedy", func() (Schedule, error) { return Greedy(ctx, clients, opts) }},
		{"Serial", func() (Schedule, error) { return Serial(clients, opts) }},
		{"Planner.Plan", func() (Schedule, error) { return pl.Plan(ctx, clients) }},
		{"Planner.PlanGreedy", func() (Schedule, error) { return pl.PlanGreedy(ctx, clients) }},
	}
	for _, e := range entries {
		s, err := e.run()
		if err == nil {
			t.Errorf("%s: accepted an unreachable client (total=%v)", e.name, s.Total)
			continue
		}
		if !strings.Contains(err.Error(), "cannot reach the AP") {
			t.Errorf("%s: err = %v, want a cannot-reach error", e.name, err)
		}
		for _, sl := range s.Slots {
			if math.IsInf(sl.Time, 1) {
				t.Errorf("%s: emitted a +Inf slot", e.name)
			}
		}
	}
}

// TestPlannerMatchesNewCtx: a reused Planner produces the same schedules
// as fresh New calls across a drifting client population — including
// odd counts (dummy vertex) and full membership changes.
func TestPlannerMatchesNewCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pl := NewPlanner(plannerOpts)
	ctx := context.Background()
	clients := plannerClients(rng, 9)
	for round := 0; round < 40; round++ {
		switch round % 10 {
		case 3:
			clients = plannerClients(rng, 8) // membership + parity change
		case 7:
			clients[rng.Intn(len(clients))].SNR = phy.FromDB(3 + 30*rng.Float64())
		default:
			// single-client SNR drift, the steady-state case
			clients[rng.Intn(len(clients))].SNR *= 1 + 0.05*(rng.Float64()-0.5)
		}
		got, err := pl.Plan(ctx, clients)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want, err := New(ctx, clients, plannerOpts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Optimal totals must agree to quantization tolerance even if tie
		// matchings differ; slot-level equality would over-constrain ties,
		// so compare totals and baseline.
		if math.Abs(got.Total-want.Total) > 1e-6*want.Total+1e-12 {
			t.Fatalf("round %d: planner total %v, New total %v", round, got.Total, want.Total)
		}
		if math.Abs(got.SerialBaseline-want.SerialBaseline) > 1e-12 {
			t.Fatalf("round %d: baseline %v, want %v", round, got.SerialBaseline, want.SerialBaseline)
		}
	}
}

// TestPlannerWarmStats: repeated queries over the same population with
// small SNR drift run warm; membership changes force cold solves.
func TestPlannerWarmStats(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pl := NewPlanner(plannerOpts)
	ctx := context.Background()
	clients := plannerClients(rng, 12)

	if _, err := pl.Plan(ctx, clients); err != nil {
		t.Fatal(err)
	}
	if s := pl.Stats(); s.Cold != 1 || s.Warm != 0 {
		t.Fatalf("after first plan: stats = %+v, want 1 cold", s)
	}
	for i := 0; i < 5; i++ {
		clients[rng.Intn(len(clients))].SNR *= 1.01
		if _, err := pl.Plan(ctx, clients); err != nil {
			t.Fatal(err)
		}
	}
	if s := pl.Stats(); s.Cold != 1 || s.Warm != 5 {
		t.Fatalf("after SNR drift: stats = %+v, want 1 cold + 5 warm", s)
	}
	clients = append(clients[:len(clients)-1], Client{ID: "new", SNR: phy.FromDB(20)})
	if _, err := pl.Plan(ctx, clients); err != nil {
		t.Fatal(err)
	}
	if s := pl.Stats(); s.Cold != 2 {
		t.Fatalf("after membership change: stats = %+v, want a second cold solve", s)
	}
}

// TestPlanGreedyMatchesGreedyCtx: the memoized greedy path is the same
// algorithm as the one-shot entry point.
func TestPlanGreedyMatchesGreedyCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pl := NewPlanner(plannerOpts)
	ctx := context.Background()
	for round := 0; round < 20; round++ {
		clients := plannerClients(rng, 3+rng.Intn(10))
		got, err := pl.PlanGreedy(ctx, clients)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Greedy(ctx, clients, plannerOpts)
		if err != nil {
			t.Fatal(err)
		}
		schedulesEquivalent(t, got, want, 1e-12)
	}
}

// TestPlannerTableReuseAfterCancelledPlan: a Plan cancelled mid-solve
// leaves the cost table intact, so the daemon's greedy rung reuses it
// rather than recomputing O(n²) pair costs; the next Plan also still
// answers correctly.
func TestPlannerTableReuseAfterCancelledPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	pl := NewPlanner(plannerOpts)
	clients := plannerClients(rng, 10)

	if _, err := pl.Plan(context.Background(), clients); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.Plan(cancelled, clients); err == nil {
		t.Fatal("cancelled Plan succeeded")
	}
	g, err := pl.PlanGreedy(context.Background(), clients)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Greedy(context.Background(), clients, plannerOpts)
	if err != nil {
		t.Fatal(err)
	}
	schedulesEquivalent(t, g, want, 1e-12)
	got, err := pl.Plan(context.Background(), clients)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(context.Background(), clients, plannerOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Total-ref.Total) > 1e-6*ref.Total {
		t.Fatalf("post-cancel total %v, want %v", got.Total, ref.Total)
	}
}

// TestCandByTimeSortsLikeSortSlice: PlanGreedy's slices.SortFunc with
// candByTime leaves candidates in exactly the order sort.Slice with
// a.t < b.t did, equal times included — greedy picks the first of tied
// pairs, so the tie order decides ablation-greedy's schedules. Lists are
// tie-heavy (times drawn from a few values, some NaN), run from below
// pdqsort's insertion-sort cutoff to 599 candidates, and a third of them
// start as reversed runs.
func TestCandByTimeSortsLikeSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(600)
		distinct := 1 + rng.Intn(8)
		cands := make([]greedyCand, n)
		for k := range cands {
			tm := float64(rng.Intn(distinct))
			if rng.Intn(50) == 0 {
				tm = math.NaN()
			}
			cands[k] = greedyCand{i: k, t: tm}
		}
		if trial%3 == 0 {
			sort.Slice(cands, func(a, b int) bool { return cands[a].i > cands[b].i }) // reversed runs
		}
		want := append([]greedyCand(nil), cands...)
		sort.Slice(want, func(a, b int) bool { return want[a].t < want[b].t })
		slices.SortFunc(cands, candByTime)
		for k := range cands {
			if cands[k].i != want[k].i {
				t.Fatalf("trial %d (n=%d): position %d holds candidate %d, sort.Slice put %d there", trial, n, k, cands[k].i, want[k].i)
			}
		}
	}
}
