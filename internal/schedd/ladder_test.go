package schedd

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/phy"
	"repro/internal/sched"
)

func ladderClients(n int) []sched.Client {
	rng := rand.New(rand.NewSource(99))
	cs := make([]sched.Client, n)
	for i := range cs {
		cs[i] = sched.Client{ID: "c", SNR: phy.FromDB(5 + 30*rng.Float64())}
	}
	return cs
}

var ladderOpts = sched.Options{Channel: phy.Wifi20MHz, PacketBits: 12000}

// TestLadderPrefersBlossom: with generous budgets the top rung answers.
func TestLadderPrefersBlossom(t *testing.T) {
	res, err := runLadder(context.Background(), ladderClients(12), ladderOpts,
		Budgets{Blossom: 5 * time.Second, Greedy: 5 * time.Second}, ladderHooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.level != LevelBlossom {
		t.Fatalf("level = %v, want blossom", res.level)
	}
	if len(res.schedule.Slots) == 0 {
		t.Fatal("empty schedule")
	}
}

// stall simulates a solver that overruns its rung's budget: it returns
// once the rung's ctx is done, so the solver that follows always starts on
// a dead ctx. The cap only bounds a test whose budget never fires.
func stall(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
	}
}

// TestLadderDegradesUnderBudgets: a simulated slow solver that overruns
// every matching rung under a 50 ms blossom budget and 10 ms greedy budget
// must degrade all the way to serial — and still answer. This is the
// acceptance scenario: a 40-client snapshot with an injected per-rung
// stall can never hold a query past its deadline.
func TestLadderDegradesUnderBudgets(t *testing.T) {
	clients := ladderClients(40)
	var visited []Level
	slow := func(ctx context.Context, l Level) {
		visited = append(visited, l)
		if l != LevelSerial {
			stall(ctx)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	res, err := runLadder(ctx, clients, ladderOpts,
		Budgets{Blossom: 50 * time.Millisecond, Greedy: 10 * time.Millisecond}, ladderHooks{slow: slow}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.level != LevelSerial {
		t.Fatalf("level = %v, want serial", res.level)
	}
	if len(res.schedule.Slots) != len(clients) {
		t.Fatalf("serial schedule has %d slots, want %d", len(res.schedule.Slots), len(clients))
	}
	if len(visited) != 3 || visited[0] != LevelBlossom || visited[1] != LevelGreedy || visited[2] != LevelSerial {
		t.Fatalf("ladder order %v, want blossom, greedy, serial", visited)
	}
	if e := time.Since(start); e > 500*time.Millisecond {
		t.Fatalf("degraded query took %v; budgets not enforced", e)
	}
}

// TestLadderSkipsToSerialOnDeadQuery: when the overall query deadline is
// already gone, the matching rungs are skipped entirely and serial still
// answers (the daemon never returns nothing when it has clients).
func TestLadderSkipsToSerialOnDeadQuery(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var visited []Level
	res, err := runLadder(ctx, ladderClients(6), ladderOpts,
		Budgets{Blossom: time.Second, Greedy: time.Second},
		ladderHooks{slow: func(_ context.Context, l Level) { visited = append(visited, l) }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.level != LevelSerial {
		t.Fatalf("level = %v, want serial", res.level)
	}
	if len(visited) != 1 || visited[0] != LevelSerial {
		t.Fatalf("visited %v, want only serial", visited)
	}
}

// TestLadderGreedyRung: blossom exhausted, greedy fits — the middle rung
// answers and is recorded.
func TestLadderGreedyRung(t *testing.T) {
	slow := func(ctx context.Context, l Level) {
		if l == LevelBlossom {
			stall(ctx)
		}
	}
	res, err := runLadder(context.Background(), ladderClients(10), ladderOpts,
		Budgets{Blossom: 5 * time.Millisecond, Greedy: 5 * time.Second}, ladderHooks{slow: slow}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.level != LevelGreedy {
		t.Fatalf("level = %v, want greedy", res.level)
	}
}

// TestLadderObservesRungLatency: the observe hook sees every rung attempt,
// timed by the injected clock — each attempt reads the clock exactly twice,
// so a 1 ms-per-read step clock yields exactly 1 ms per attempt.
func TestLadderObservesRungLatency(t *testing.T) {
	base := time.Unix(1000, 0)
	var reads int
	now := func() time.Time {
		reads++
		return base.Add(time.Duration(reads) * time.Millisecond)
	}
	type rec struct {
		l Level
		d time.Duration
	}
	var recs []rec
	hooks := ladderHooks{now: now, observe: func(l Level, d time.Duration) { recs = append(recs, rec{l, d}) }}

	res, err := runLadder(context.Background(), ladderClients(8), ladderOpts,
		Budgets{Blossom: 5 * time.Second, Greedy: 5 * time.Second}, hooks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.level != LevelBlossom {
		t.Fatalf("level = %v, want blossom", res.level)
	}
	if len(recs) != 1 || recs[0].l != LevelBlossom || recs[0].d != time.Millisecond {
		t.Fatalf("observations %v, want one blossom attempt of exactly 1ms", recs)
	}

	// A dead query skips straight to serial; the serial attempt is observed
	// too — it is part of the latency story even though it cannot stall.
	recs = nil
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = runLadder(ctx, ladderClients(4), ladderOpts,
		Budgets{Blossom: time.Second, Greedy: time.Second}, hooks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.level != LevelSerial {
		t.Fatalf("level = %v, want serial", res.level)
	}
	if len(recs) != 1 || recs[0].l != LevelSerial || recs[0].d != time.Millisecond {
		t.Fatalf("observations %v, want one serial attempt of exactly 1ms", recs)
	}
}

// TestLadderReusesPlanner: consecutive ladder runs through the same
// Planner answer identically to plannerless runs, and after the first
// query the optimal rung warm-starts instead of solving from scratch.
func TestLadderReusesPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clients := ladderClients(14)
	pl := sched.NewPlanner(ladderOpts)
	budgets := Budgets{Blossom: 5 * time.Second, Greedy: 5 * time.Second}
	for round := 0; round < 6; round++ {
		if round > 0 {
			clients[rng.Intn(len(clients))].SNR *= 1 + 0.02*rng.Float64()
		}
		got, err := runLadder(context.Background(), clients, ladderOpts, budgets, ladderHooks{}, pl)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.level != LevelBlossom {
			t.Fatalf("round %d: level = %v, want blossom", round, got.level)
		}
		want, err := runLadder(context.Background(), clients, ladderOpts, budgets, ladderHooks{}, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if diff := got.schedule.Total - want.schedule.Total; diff > 1e-6*want.schedule.Total || diff < -1e-6*want.schedule.Total {
			t.Fatalf("round %d: planner total %v, plannerless total %v", round, got.schedule.Total, want.schedule.Total)
		}
	}
	if s := pl.Stats(); s.Cold != 1 || s.Warm != 5 {
		t.Fatalf("planner stats = %+v, want 1 cold + 5 warm across 6 queries", s)
	}
}

// TestLevelString: every rung has a stable, non-placeholder name (they are
// serialized into responses).
func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{LevelBlossom: "blossom", LevelGreedy: "greedy", LevelSerial: "serial"} {
		if l.String() != want {
			t.Fatalf("Level(%d).String() = %q, want %q", int(l), l.String(), want)
		}
	}
}
