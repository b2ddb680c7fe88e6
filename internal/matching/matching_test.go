package matching

import (
	"context"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

func checkMatchingConsistent(t *testing.T, mate []int) {
	t.Helper()
	for i, m := range mate {
		if m == Unmatched {
			continue
		}
		if m < 0 || m >= len(mate) || m == i {
			t.Fatalf("mate[%d] = %d out of range", i, m)
		}
		if mate[m] != i {
			t.Fatalf("mate not symmetric: mate[%d]=%d but mate[%d]=%d", i, m, m, mate[m])
		}
	}
}

func TestMinCostPerfectValidation(t *testing.T) {
	ctx := context.Background()
	if _, _, err := MinCostPerfect(ctx, [][]int64{{0, 1}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, _, err := MinCostPerfect(ctx, [][]int64{{0, 1}, {2, 0}}); err != ErrAsymmetric {
		t.Errorf("asymmetric matrix: err = %v, want ErrAsymmetric", err)
	}
	if _, _, err := MinCostPerfect(ctx, [][]int64{{0, -1}, {-1, 0}}); err != ErrNegativeCost {
		t.Errorf("negative cost: err = %v, want ErrNegativeCost", err)
	}
}

func TestMinCostPerfectSimple(t *testing.T) {
	// 4 vertices; pairing (0,1)+(2,3) costs 1+1=2, every other pairing ≥ 20.
	cost := [][]int64{
		{0, 1, 10, 10},
		{1, 0, 10, 10},
		{10, 10, 0, 1},
		{10, 10, 1, 0},
	}
	mate, total, err := MinCostPerfect(context.Background(), cost)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchingConsistent(t, mate)
	if total != 2 || mate[0] != 1 || mate[2] != 3 {
		t.Errorf("mate=%v total=%d, want (0-1)(2-3) cost 2", mate, total)
	}
}

func TestMinCostPerfectOddRejected(t *testing.T) {
	cost := [][]int64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	if _, _, err := MinCostPerfect(context.Background(), cost); err != ErrOddVertexCount {
		t.Errorf("odd n: err = %v, want ErrOddVertexCount", err)
	}
	if _, _, err := ExactMinCostPerfect(cost); err != ErrOddVertexCount {
		t.Errorf("exact odd n: err = %v, want ErrOddVertexCount", err)
	}
}

func TestMinCostPerfectEmpty(t *testing.T) {
	mate, total, err := MinCostPerfect(context.Background(), [][]int64{})
	if err != nil || total != 0 || len(mate) != 0 {
		t.Errorf("empty: %v %v %v", mate, total, err)
	}
}

func TestMinCostPerfectAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 2 * (1 + rng.Intn(7)) // 2..14 even
		cost := make([][]int64, n)
		for i := range cost {
			cost[i] = make([]int64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rng.Int63n(1000)
				cost[i][j], cost[j][i] = v, v
			}
		}
		mate, total, err := MinCostPerfect(context.Background(), cost)
		if err != nil {
			t.Fatal(err)
		}
		checkMatchingConsistent(t, mate)
		for i, m := range mate {
			if m == Unmatched {
				t.Fatalf("trial %d: vertex %d unmatched in perfect matching", trial, i)
			}
		}
		_, wantTotal, err := ExactMinCostPerfect(cost)
		if err != nil {
			t.Fatal(err)
		}
		if total != wantTotal {
			t.Fatalf("trial %d (n=%d): blossom cost %d != exact %d\ncost=%v",
				trial, n, total, wantTotal, cost)
		}
	}
}

func TestMinCostPerfectLargeInstance(t *testing.T) {
	// Blossom must stay optimal-feeling and fast well beyond the exact
	// matcher's reach; verify structural sanity and a lower bound argument:
	// the optimum can never beat the sum of each vertex's cheapest edge / 2.
	rng := rand.New(rand.NewSource(7))
	n := 100
	cost := make([][]int64, n)
	for i := range cost {
		cost[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Int63n(1_000_000)
			cost[i][j], cost[j][i] = v, v
		}
	}
	mate, total, err := MinCostPerfect(context.Background(), cost)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchingConsistent(t, mate)
	var lower int64
	for i := 0; i < n; i++ {
		best := int64(1 << 62)
		for j := 0; j < n; j++ {
			if j != i && cost[i][j] < best {
				best = cost[i][j]
			}
		}
		lower += best
	}
	lower /= 2
	if total < lower {
		t.Errorf("matching cost %d below the per-vertex lower bound %d", total, lower)
	}
}

func TestExactMinCostPerfectTooLarge(t *testing.T) {
	n := 24
	cost := make([][]int64, n)
	for i := range cost {
		cost[i] = make([]int64, n)
	}
	if _, _, err := ExactMinCostPerfect(cost); err == nil {
		t.Error("ExactMinCostPerfect accepted n=24")
	}
}

func TestExactMinCostPerfectKnown(t *testing.T) {
	cost := [][]int64{
		{0, 3, 1, 4},
		{3, 0, 4, 1},
		{1, 4, 0, 3},
		{4, 1, 3, 0},
	}
	mate, total, err := ExactMinCostPerfect(cost)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchingConsistent(t, mate)
	if total != 2 { // (0-2)+(1-3) = 1+1
		t.Errorf("total = %d, want 2 (mate=%v)", total, mate)
	}
}

func TestMinCostPerfectDeterministic(t *testing.T) {
	cost := [][]int64{
		{0, 5, 9, 2},
		{5, 0, 4, 7},
		{9, 4, 0, 8},
		{2, 7, 8, 0},
	}
	m1, t1, _ := MinCostPerfect(context.Background(), cost)
	m2, t2, _ := MinCostPerfect(context.Background(), cost)
	if t1 != t2 {
		t.Errorf("nondeterministic totals %d vs %d", t1, t2)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Errorf("nondeterministic mate at %d: %d vs %d", i, m1[i], m2[i])
		}
	}
}

func BenchmarkMinCostPerfect32(b *testing.B) {
	benchMinCost(b, 32)
}

func BenchmarkMinCostPerfect64(b *testing.B) {
	benchMinCost(b, 64)
}

func benchMinCost(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(3))
	cost := make([][]int64, n)
	for i := range cost {
		cost[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Int63n(1_000_000)
			cost[i][j], cost[j][i] = v, v
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MinCostPerfect(context.Background(), cost); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMinCostPerfectVeryLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	// The scheduler's real-world ceiling is a few hundred clients; verify
	// the O(n³) implementation handles n=128 comfortably and returns a
	// structurally valid perfect matching whose cost beats greedy.
	rng := rand.New(rand.NewSource(17))
	n := 128
	cost := make([][]int64, n)
	for i := range cost {
		cost[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Int63n(1_000_000)
			cost[i][j], cost[j][i] = v, v
		}
	}
	mate, total, err := MinCostPerfect(context.Background(), cost)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchingConsistent(t, mate)
	for i, m := range mate {
		if m == Unmatched {
			t.Fatalf("vertex %d unmatched", i)
		}
	}
	// Greedy upper bound: repeatedly take the globally cheapest edge.
	type edge struct {
		i, j int
		c    int64
	}
	var edges []edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, edge{i, j, cost[i][j]})
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].c < edges[b].c })
	used := make([]bool, n)
	var greedy int64
	for _, e := range edges {
		if !used[e.i] && !used[e.j] {
			used[e.i], used[e.j] = true, true
			greedy += e.c
		}
	}
	if total > greedy {
		t.Errorf("blossom cost %d worse than greedy %d", total, greedy)
	}
}

// TestTrailingZeros: the helper must terminate and return the word size on
// input 0 — the hand-rolled predecessor spun forever there — and agree with
// the obvious definition on every single-bit and mixed input.
func TestTrailingZeros(t *testing.T) {
	if got := trailingZeros(0); got != bits.UintSize {
		t.Fatalf("trailingZeros(0) = %d, want %d", got, bits.UintSize)
	}
	for s := 0; s < 62; s++ {
		if got := trailingZeros(1 << s); got != s {
			t.Fatalf("trailingZeros(1<<%d) = %d, want %d", s, got, s)
		}
		if got := trailingZeros(1<<s | 1<<62); got != s {
			t.Fatalf("trailingZeros(1<<%d|1<<62) = %d, want %d", s, got, s)
		}
	}
}
