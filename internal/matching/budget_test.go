package matching

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// randCosts builds a random symmetric cost matrix on n vertices.
func randCosts(rng *rand.Rand, n int, maxC int64) [][]int64 {
	cost := make([][]int64, n)
	for i := range cost {
		cost[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := rng.Int63n(maxC)
			cost[i][j], cost[j][i] = c, c
		}
	}
	return cost
}

// TestMinCostPerfectCtxMatchesUncancelled: a live context that never fires
// arms the solver's cancellation probe, and must not change the answer a
// background context gets.
func TestMinCostPerfectCtxMatchesUncancelled(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 * (1 + rng.Intn(8))
		cost := randCosts(rng, n, 1000)
		m1, t1, err := MinCostPerfect(context.Background(), cost)
		if err != nil {
			t.Fatal(err)
		}
		m2, t2, err := MinCostPerfect(ctx, cost)
		if err != nil {
			t.Fatal(err)
		}
		if t1 != t2 {
			t.Fatalf("totals differ: %d vs %d", t1, t2)
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				t.Fatalf("mates differ at %d: %d vs %d", i, m1[i], m2[i])
			}
		}
	}
}

// TestMinCostPerfectCtxCancelled: an already-cancelled context must surface
// context.Canceled, not a matching.
func TestMinCostPerfectCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(3))
	_, _, err := MinCostPerfect(ctx, randCosts(rng, 40, 1_000_000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestMinCostPerfectCtxDeadline: a deadline far too tight for a large
// instance must abort the solve promptly with DeadlineExceeded.
func TestMinCostPerfectCtxDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cost := randCosts(rng, 200, 1_000_000_000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	start := time.Now()
	_, _, err := MinCostPerfect(ctx, cost)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("cancelled solve took %v, want bounded abort", e)
	}
}
