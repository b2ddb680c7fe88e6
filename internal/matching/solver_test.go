package matching

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// randCostMatrix fills a symmetric cost matrix with uniform costs in
// [0, maxC], zero diagonal.
func randCostMatrix(rng *rand.Rand, n int, maxC int64) [][]int64 {
	cost := make([][]int64, n)
	for i := range cost {
		cost[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := rng.Int63n(maxC + 1)
			cost[i][j] = c
			cost[j][i] = c
		}
	}
	return cost
}

// loadSolver pushes the upper triangle of cost into s.
func loadSolver(t testing.TB, s *Solver, cost [][]int64) {
	t.Helper()
	n := len(cost)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := s.SetCost(i, j, cost[i][j]); err != nil {
				t.Fatalf("SetCost(%d, %d, %d): %v", i, j, cost[i][j], err)
			}
		}
	}
}

// checkPerfect verifies mate is a perfect symmetric matching and returns
// its total cost.
func checkPerfect(t *testing.T, cost [][]int64, mate []int) int64 {
	t.Helper()
	n := len(cost)
	if len(mate) != n {
		t.Fatalf("len(mate) = %d, want %d", len(mate), n)
	}
	var total int64
	for i, m := range mate {
		if m < 0 || m >= n || m == i {
			t.Fatalf("mate[%d] = %d out of range", i, m)
		}
		if mate[m] != i {
			t.Fatalf("mate not symmetric: mate[%d] = %d but mate[%d] = %d", i, m, m, mate[m])
		}
		if i < m {
			total += cost[i][m]
		}
	}
	return total
}

// TestSolverColdMatchesMinCostPerfect: the Solver cold path and the one-shot
// facade agree (they share the engine, so this pins the facade wiring).
func TestSolverColdMatchesMinCostPerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := NewSolver()
	for trial := 0; trial < 50; trial++ {
		n := 2 * (1 + rng.Intn(8))
		cost := randCostMatrix(rng, n, 1000)
		if err := s.Reset(n); err != nil {
			t.Fatal(err)
		}
		loadSolver(t, s, cost)
		got, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkPerfect(t, cost, s.Mates())
		_, want, err := MinCostPerfect(context.Background(), cost)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("n=%d trial=%d: Solver total %d, MinCostPerfect total %d", n, trial, got, want)
		}
	}
}

// TestSolverWarmAgainstExact is the acceptance property: thousands of warm
// re-solves after random single-edge (and occasional burst) perturbations,
// each cross-checked against the ExactMinCostPerfect oracle. Total cost
// must be identical to a from-scratch optimum and the matching must be a
// valid perfect matching of that cost.
func TestSolverWarmAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSolver()
	const maxC = 200
	for _, n := range []int{4, 6, 8, 10, 12} {
		cost := randCostMatrix(rng, n, maxC)
		if err := s.Reset(n); err != nil {
			t.Fatal(err)
		}
		loadSolver(t, s, cost)
		if _, err := s.Solve(context.Background()); err != nil {
			t.Fatal(err)
		}
		rounds := 600
		if testing.Short() {
			rounds = 60
		}
		for round := 0; round < rounds; round++ {
			// Perturb 1 edge most rounds, a burst of up to n edges sometimes.
			edits := 1
			if round%7 == 0 {
				edits = 1 + rng.Intn(n)
			}
			for e := 0; e < edits; e++ {
				i := rng.Intn(n)
				j := rng.Intn(n)
				for j == i {
					j = rng.Intn(n)
				}
				c := rng.Int63n(maxC + 1)
				cost[i][j], cost[j][i] = c, c
				if err := s.SetCost(i, j, c); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.Warm(context.Background())
			if err != nil {
				t.Fatalf("n=%d round=%d: Warm: %v", n, round, err)
			}
			if mt := checkPerfect(t, cost, s.Mates()); mt != got {
				t.Fatalf("n=%d round=%d: reported total %d but matching sums to %d", n, round, got, mt)
			}
			_, want, err := ExactMinCostPerfect(cost)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("n=%d round=%d: warm total %d, exact optimum %d", n, round, got, want)
			}
		}
	}
}

// TestSolverWarmMatchesColdLarge: beyond the oracle's reach, warm re-solves
// must still agree with an independent cold solve of the same instance.
func TestSolverWarmMatchesColdLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 48
	cost := randCostMatrix(rng, n, 100000)
	warm := NewSolver()
	if err := warm.Reset(n); err != nil {
		t.Fatal(err)
	}
	loadSolver(t, warm, cost)
	if _, err := warm.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	rounds := 100
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		for j == i {
			j = rng.Intn(n)
		}
		c := rng.Int63n(100001)
		cost[i][j], cost[j][i] = c, c
		if err := warm.SetCost(i, j, c); err != nil {
			t.Fatal(err)
		}
		got, err := warm.Warm(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkPerfect(t, cost, warm.Mates())
		_, want, err := MinCostPerfect(context.Background(), cost)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round=%d: warm total %d, cold total %d", round, got, want)
		}
	}
}

// TestSolverWarmRebase: a warm re-solve across a cost spike that outgrows
// the sticky max-weight base (forcing a dual rebase) stays optimal.
func TestSolverWarmRebase(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 10
	cost := randCostMatrix(rng, n, 10)
	s := NewSolver()
	if err := s.Reset(n); err != nil {
		t.Fatal(err)
	}
	loadSolver(t, s, cost)
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Spike one edge far past the previous maximum, then shrink it again;
	// both transitions must survive warm-started.
	for _, spike := range []int64{100000, 3} {
		cost[2][5], cost[5][2] = spike, spike
		if err := s.SetCost(2, 5, spike); err != nil {
			t.Fatal(err)
		}
		got, err := s.Warm(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkPerfect(t, cost, s.Mates())
		_, want, err := ExactMinCostPerfect(cost)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("spike=%d: warm total %d, exact optimum %d", spike, got, want)
		}
	}
}

// TestSolverResetReuse: one Solver across shrinking and growing instance
// sizes; stale state from a larger instance must never leak into a smaller
// one.
func TestSolverResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := NewSolver()
	for _, n := range []int{16, 4, 12, 2, 16, 8} {
		cost := randCostMatrix(rng, n, 500)
		if err := s.Reset(n); err != nil {
			t.Fatal(err)
		}
		if s.CanWarm() {
			t.Fatal("CanWarm true immediately after Reset")
		}
		loadSolver(t, s, cost)
		got, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkPerfect(t, cost, s.Mates())
		_, want, err := ExactMinCostPerfect(cost)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("n=%d: total %d, exact %d", n, got, want)
		}
		if !s.CanWarm() {
			t.Fatal("CanWarm false after a successful solve")
		}
	}
}

// TestSolverValidation: Reset and SetCost reject bad shapes and values with
// the package's sentinel errors.
func TestSolverValidation(t *testing.T) {
	s := NewSolver()
	if err := s.Reset(3); err != ErrOddVertexCount {
		t.Fatalf("Reset(3): err = %v, want ErrOddVertexCount", err)
	}
	if err := s.Reset(-2); err != ErrOddVertexCount {
		t.Fatalf("Reset(-2): err = %v, want ErrOddVertexCount", err)
	}
	if err := s.Reset(4); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCost(0, 0, 1); err == nil {
		t.Fatal("SetCost on the diagonal accepted")
	}
	if err := s.SetCost(0, 4, 1); err == nil {
		t.Fatal("SetCost out of range accepted")
	}
	if err := s.SetCost(0, 1, -1); err != ErrNegativeCost {
		t.Fatalf("negative cost: err = %v, want ErrNegativeCost", err)
	}
	if err := s.SetCost(0, 1, maxSafeWeight(4)); !errors.Is(err, ErrWeightTooLarge) {
		t.Fatalf("huge cost: err = %v, want ErrWeightTooLarge", err)
	}
	// n = 0 solves trivially.
	if err := s.Reset(0); err != nil {
		t.Fatal(err)
	}
	if total, err := s.Solve(context.Background()); err != nil || total != 0 {
		t.Fatalf("empty solve = (%d, %v), want (0, nil)", total, err)
	}
}

// TestSolverCtxCancellation: both Solve and Warm abandon a cancelled solve
// with ctx.Err(), and the Solver recovers on the next call.
func TestSolverCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 40
	cost := randCostMatrix(rng, n, 100000)
	s := NewSolver()
	if err := s.Reset(n); err != nil {
		t.Fatal(err)
	}
	loadSolver(t, s, cost)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Solve(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := s.Warm(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Warm(cancelled) err = %v, want context.Canceled", err)
	}
	// Recovery: the same Solver answers correctly afterwards.
	got, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := MinCostPerfect(context.Background(), cost)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-cancel total %d, want %d", got, want)
	}
}

// TestSolverZeroAllocSteadyState is the tentpole's headline number: once
// warmed up, neither a full re-solve nor a warm re-solve allocates.
func TestSolverZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 32
	cost := randCostMatrix(rng, n, 100000)
	s := NewSolver()
	ctx := context.Background()

	coldOnce := func() {
		if err := s.Reset(n); err != nil {
			t.Fatal(err)
		}
		loadSolver(t, s, cost)
		if _, err := s.Solve(ctx); err != nil {
			t.Fatal(err)
		}
	}
	coldOnce() // grow every buffer to steady state
	if allocs := testing.AllocsPerRun(10, coldOnce); allocs != 0 {
		t.Fatalf("steady-state Reset+SetCost+Solve allocates %v/op, want 0", allocs)
	}

	// Warm path: perturb one edge per run. Cycle a fixed set of
	// perturbations so the instance stays bounded.
	k := 0
	warmOnce := func() {
		i, j := k%n, (k+1+k%(n-1))%n
		if i == j {
			j = (j + 1) % n
		}
		k++
		if err := s.SetCost(i, j, cost[i][j]/2+int64(k%97)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Warm(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 20; w++ { // warm up dirty-slice capacity and paths
		warmOnce()
	}
	if allocs := testing.AllocsPerRun(50, warmOnce); allocs != 0 {
		t.Fatalf("steady-state SetCost+Warm allocates %v/op, want 0", allocs)
	}
}

// benchWarmSolver returns a solved Solver and its cost matrix for warm
// benchmarks.
func benchWarmSolver(b *testing.B, n int) (*Solver, [][]int64) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	cost := randCostMatrix(rng, n, 1_000_000)
	s := NewSolver()
	if err := s.Reset(n); err != nil {
		b.Fatal(err)
	}
	loadSolver(b, s, cost)
	if _, err := s.Solve(context.Background()); err != nil {
		b.Fatal(err)
	}
	return s, cost
}

func BenchmarkSolverCold64(b *testing.B)  { benchSolverCold(b, 64) }
func BenchmarkSolverCold256(b *testing.B) { benchSolverCold(b, 256) }

func benchSolverCold(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(3))
	cost := randCostMatrix(rng, n, 1_000_000)
	s := NewSolver()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Reset(n); err != nil {
			b.Fatal(err)
		}
		loadSolver(b, s, cost)
		if _, err := s.Solve(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverWarm64(b *testing.B)  { benchSolverWarm(b, 64) }
func BenchmarkSolverWarm256(b *testing.B) { benchSolverWarm(b, 256) }

// benchSolverWarm measures the live-AP steady state: one edge cost moves
// per report, the solver re-solves warm.
func benchSolverWarm(b *testing.B, n int) {
	s, cost := benchWarmSolver(b, n)
	rng := rand.New(rand.NewSource(9))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		for j == i {
			j = rng.Intn(n)
		}
		c := rng.Int63n(1_000_001)
		cost[i][j], cost[j][i] = c, c
		if err := s.SetCost(i, j, c); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Warm(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
