package mc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// streamDraws covers three full cycles of the 607-word state: every word
// is read as feed and as tap, and both indices wrap several times, the
// feed first after 334 draws.
const streamDraws = 3 * rngLen

// matchStdlib fails t unless src, as seeded, emits the next streamDraws
// Uint64s of a fresh rand.NewSource(seed).
func matchStdlib(t *testing.T, src *trialSource, seed int64) {
	t.Helper()
	std := rand.NewSource(seed).(rand.Source64)
	for k := 0; k < streamDraws; k++ {
		if want, got := std.Uint64(), src.Uint64(); got != want {
			t.Fatalf("seed %d draw %d: trialSource %#x, rand.NewSource %#x", seed, k, got, want)
		}
	}
}

// TestTrialSourceMatchesStdlib pins the engine's RNG to math/rand's
// stream: seed normalisation edge cases (0, negatives, multiples of
// 2³¹−1, the zero-seed substitute, the int64 extremes), reuse of the
// generation stamps over many short reseed cycles, and the stamp clear
// when the generation counter wraps.
func TestTrialSourceMatchesStdlib(t *testing.T) {
	seeds := []int64{
		0, 1, -1, -42,
		lcgMod - 1, lcgMod, lcgMod + 1, 2 * lcgMod, -lcgMod,
		lcgZeroSeed,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		1 + 3*trialSeedStride,
	}
	src := newTrialSource(0)
	for _, seed := range seeds {
		src.Seed(seed)
		matchStdlib(t, src, seed)
	}

	t.Run("short cycles", func(t *testing.T) {
		r := rand.New(newTrialSource(0))
		for i := 0; i < 5000; i++ {
			seed := int64(i) * trialSeedStride
			r.Seed(seed)
			std := rand.New(rand.NewSource(seed))
			for k := 0; k < 9; k++ {
				if want, got := std.Float64(), r.Float64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cycle %d draw %d: trialSource %v, rand.NewSource %v", i, k, got, want)
				}
			}
		}
	})

	t.Run("generation wrap", func(t *testing.T) {
		// Words built under generation 1 would pass as current again
		// after the wrap unless Seed clears the stamps.
		src := newTrialSource(7)
		for k := 0; k < 9; k++ {
			src.Uint64()
		}
		src.gen = math.MaxUint32
		src.Seed(8)
		if src.gen != 1 {
			t.Fatalf("gen after wrap = %d, want 1", src.gen)
		}
		matchStdlib(t, src, 8)
	})
}

// reseedAndPlace is the figures' topology-draw stage as runBlock runs it
// for trial i of the two-receiver sweeps: reseed the arena RNG, then draw
// one §3.2 placement.
func reseedAndPlace(a *arena, cfg *Config, i int) topo.TwoLinkPlacement {
	a.rng.Seed(cfg.Seed + int64(i)*trialSeedStride)
	return topo.PlaceTwoLinks(a.rng, cfg.Separation, cfg.Range)
}

var sinkPlacement topo.TwoLinkPlacement

// TestTrialReseedAllocs pins the topology-draw stage to zero allocations.
func TestTrialReseedAllocs(t *testing.T) {
	cfg := testConfig(1)
	a := newArena(0)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sinkPlacement = reseedAndPlace(a, &cfg, i)
		i++
	})
	if allocs != 0 {
		t.Errorf("reseed + PlaceTwoLinks allocated %v times per trial, want 0", allocs)
	}
}

// BenchmarkTrialReseed measures the per-trial topology-draw stage of the
// figures ledger: one reseed plus one topo.PlaceTwoLinks.
func BenchmarkTrialReseed(b *testing.B) {
	cfg := testConfig(1)
	a := newArena(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkPlacement = reseedAndPlace(a, &cfg, i)
	}
}
