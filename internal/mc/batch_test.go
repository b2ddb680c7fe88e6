package mc

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topo"
)

// TestReseedMatchesFreshSource pins the mechanism the batched engine's
// determinism rests on: reseeding the arena's own RNG produces the exact
// variate stream of a freshly constructed rand.New(rand.NewSource(seed)),
// across two full cycles of the 607-word state.
func TestReseedMatchesFreshSource(t *testing.T) {
	shared := newArena(0).rng
	for _, seed := range []int64{0, 1, 7, -42, 1 + 3*trialSeedStride, 9 * trialSeedStride, math.MaxInt64, math.MinInt64} {
		fresh := rand.New(rand.NewSource(seed))
		shared.Seed(seed)
		for k := 0; k < 2*rngLen; k++ {
			a, b := fresh.Float64(), shared.Float64()
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d draw %d: fresh %v vs reseeded %v", seed, k, a, b)
			}
		}
	}
}

// scalarReference is the engine oracle: a sequential loop evaluating one
// trial at a time on a freshly constructed RNG with scalar phy arithmetic
// — no blocks, no arenas, no re-seeding, no column kernels.
func scalarReference(cfg Config, trial func(cfg Config, rng *rand.Rand) float64) []float64 {
	out := make([]float64, cfg.Trials)
	for i := range out {
		out[i] = trial(cfg, rand.New(rand.NewSource(cfg.Seed+int64(i)*trialSeedStride)))
	}
	return out
}

// crossSample draws one §3.2 topology and evaluates its RSS matrix.
func crossSample(cfg Config, rng *rand.Rand) core.Cross {
	pl := topo.PlaceTwoLinks(rng, cfg.Separation, cfg.Range)
	var x core.Cross
	x.S[0][0] = cfg.PathLoss.SNRAt(pl.T1.Dist(pl.R1))
	x.S[0][1] = cfg.PathLoss.SNRAt(pl.T2.Dist(pl.R1))
	x.S[1][0] = cfg.PathLoss.SNRAt(pl.T1.Dist(pl.R2))
	x.S[1][1] = cfg.PathLoss.SNRAt(pl.T2.Dist(pl.R2))
	return x
}

// sameReceiverSample draws two transmitters uniform around a receiver at
// the origin and evaluates their SNRs.
func sameReceiverSample(cfg Config, rng *rand.Rand) core.Pair {
	rx := topo.Point{}
	t1 := topo.UniformInDisc(rng, rx, cfg.Range)
	t2 := topo.UniformInDisc(rng, rx, cfg.Range)
	return core.Pair{
		S1: cfg.PathLoss.SNRAt(rx.Dist(t1)),
		S2: cfg.PathLoss.SNRAt(rx.Dist(t2)),
	}
}

// TestBatchedMatchesScalarBitwise pins the engine to the scalar
// reference: every sweep family and technique must produce bit-identical
// samples. Trials spans several full blocks plus a partial one, so block
// edges are exercised.
func TestBatchedMatchesScalarBitwise(t *testing.T) {
	cfg := testConfig(3*batchBlock + 37)
	run := func(name string, sweep func(Config) ([]float64, error), trial func(Config, *rand.Rand) float64) {
		t.Helper()
		batched, err := sweep(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scalar := scalarReference(cfg, trial)
		for i := range scalar {
			if math.Float64bits(scalar[i]) != math.Float64bits(batched[i]) {
				t.Fatalf("%s trial %d: scalar %v (%#x) != batched %v (%#x)",
					name, i, scalar[i], math.Float64bits(scalar[i]), batched[i], math.Float64bits(batched[i]))
			}
		}
	}
	run("TwoReceiverGains", func(cfg Config) ([]float64, error) {
		return TwoReceiverGains(context.Background(), cfg)
	}, func(cfg Config, rng *rand.Rand) float64 {
		return twoReceiverGain(cfg, TechSIC, crossSample(cfg, rng))
	})
	for _, tech := range []Technique{TechSIC, TechPowerControl, TechMultirate, TechPacking} {
		tech := tech
		run("SameReceiverGains/"+tech.String(), func(cfg Config) ([]float64, error) {
			return SameReceiverGains(context.Background(), cfg, tech)
		}, func(cfg Config, rng *rand.Rand) float64 {
			return sameReceiverGain(cfg, tech, sameReceiverSample(cfg, rng))
		})
	}
	for _, tech := range []Technique{TechSIC, TechPacking} {
		tech := tech
		run("TwoReceiverTechniqueGains/"+tech.String(), func(cfg Config) ([]float64, error) {
			return TwoReceiverTechniqueGains(context.Background(), cfg, tech)
		}, func(cfg Config, rng *rand.Rand) float64 {
			return twoReceiverGain(cfg, tech, crossSample(cfg, rng))
		})
	}
}

// cancellingEval wraps the two-receiver eval so that the parent context is
// cancelled once a fixed number of trials have been reduced — a
// deterministic stand-in for "the user hit ctrl-C mid-sweep".
func cancellingEval(cancel context.CancelFunc, after int64, reduced *atomic.Int64) batchEval {
	ev := twoReceiverEval(TechSIC)
	inner := ev.gain
	ev.gain = func(cfg *Config, col *[maxCols][]float64, j int) float64 {
		if reduced.Add(1) == after {
			cancel()
		}
		return inner(cfg, col, j)
	}
	return ev
}

// TestInterruptedSweepCountersAgree is the satellite regression test for
// the trial-accounting audit: cancel a sweep mid-batch and cross-check
// that the runner-visible PartialError.Completed and Metrics.Trials agree
// exactly — the partial block is neither dropped nor double-counted.
func TestInterruptedSweepCountersAgree(t *testing.T) {
	const trials = 64 * batchBlock

	t.Run("batched", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := testConfig(trials)
		cfg.Metrics = NewMetrics(obs.NewRegistry())
		var reduced atomic.Int64
		_, err := runBatched(ctx, cfg, cancellingEval(cancel, batchBlock+3, &reduced))
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *PartialError", err)
		}
		if got := cfg.Metrics.Trials.Get(); got != int64(pe.Completed) {
			t.Errorf("mc_trials_total = %d, PartialError.Completed = %d; counters disagree", got, pe.Completed)
		}
		if pe.Completed < batchBlock+3 || pe.Completed >= trials {
			t.Errorf("Completed = %d, want a mid-sweep value in [%d, %d)", pe.Completed, batchBlock+3, trials)
		}
		if got := cfg.Metrics.Sweeps.Get(); got != 0 {
			t.Errorf("mc_sweeps_total = %d after interruption, want 0", got)
		}
	})
}

// TestCancelAfterFinalTrialIsNotPartial pins the accounting fix: a context
// cancelled only after every trial has finished yields a complete result —
// the samples are byte-identical to an uncancelled run's, so reporting
// "interrupted after N/N trials" (with Metrics.Trials already at N) was a
// contradiction.
func TestCancelAfterFinalTrialIsNotPartial(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := testConfig(batchBlock) // exactly one block
		cfg.Metrics = NewMetrics(obs.NewRegistry())
		var reduced atomic.Int64
		out, err := runBatched(ctx, cfg, cancellingEval(cancel, batchBlock, &reduced))
		if err != nil {
			t.Fatalf("fully-completed sweep reported error: %v", err)
		}
		if len(out) != batchBlock {
			t.Fatalf("len(out) = %d, want %d", len(out), batchBlock)
		}
		if got := cfg.Metrics.Trials.Get(); got != batchBlock {
			t.Errorf("mc_trials_total = %d, want %d", got, batchBlock)
		}
		if got := cfg.Metrics.Sweeps.Get(); got != 1 {
			t.Errorf("mc_sweeps_total = %d, want 1", got)
		}
	})
}

// TestBatchedTrialPanicSurfacesAsError pins the panic contract: a
// panicking trial surfaces as an error that names the panic and carries a
// stack, instead of taking down the process.
func TestBatchedTrialPanicSurfacesAsError(t *testing.T) {
	cfg := testConfig(2*batchBlock + 10)
	ev := twoReceiverEval(TechSIC)
	inner := ev.gain
	ev.gain = func(c *Config, col *[maxCols][]float64, j int) float64 {
		if j == 7 {
			panic("boom")
		}
		return inner(c, col, j)
	}
	_, err := runBatched(context.Background(), cfg, ev)
	if err == nil {
		t.Fatal("panicking trial returned nil error")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panic error %q missing value or marker", err)
	}
	if !strings.Contains(err.Error(), "goroutine") {
		t.Errorf("panic error should carry a stack trace, got %q", err)
	}
}

// TestBatchedSteadyStateAllocs guards the tentpole's headline: the batched
// engine amortises all per-trial scratch into per-worker arenas, so a
// sweep's allocation count is tiny and independent of Trials.
func TestBatchedSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting sweep")
	}
	const trials = 16 * batchBlock
	cfg := testConfig(trials)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := TwoReceiverGains(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: result slice, per-worker arenas, channels/goroutines — all
	// O(workers), none O(trials). 0.05 allocs/trial ≈ 200 for this sweep.
	if perTrial := allocs / trials; perTrial > 0.05 {
		t.Errorf("batched sweep allocated %.0f times (%.3f/trial), want ~0/trial", allocs, perTrial)
	}
}
