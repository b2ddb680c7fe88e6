package mc

// The Monte-Carlo engine is batched and columnar. Workers pull blocks of
// trial indices, draw the block's topologies into structure-of-arrays
// distance columns held in a per-worker arena, convert whole columns to
// SNR with the phy slice kernels, and only then reduce each trial to its
// gain sample. Steady state is ~0 allocations per trial: the arena
// (columns + one reusable *rand.Rand) is allocated once per worker per
// sweep.
//
// Determinism contract (see DESIGN.md): trial i reads the same stream as
// rand.NewSource(Seed + i*trialSeedStride). The worker's RNG runs on a
// trialSource (source.go), which emits math/rand's stream but builds its
// state lazily, so reseeding per trial costs O(draws), not O(607). The
// phy slice kernels are element-wise wrappers of the scalar functions, so
// every sample is bit-identical to evaluating its trial alone with scalar
// arithmetic — pinned by the oracle tests in batch_test.go and
// source_test.go.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topo"
)

// batchBlock is how many trials a worker processes per dispatch. Big
// enough to amortise channel handoffs and keep the column kernels in
// straight-line loops, small enough that the arena (maxCols columns of
// float64) stays comfortably inside L1/L2 and cancellation latency stays
// bounded: a worker finishes at most one in-flight block after ctx fires.
const batchBlock = 256

// maxCols is the widest column set any sweep needs (the two-receiver
// topologies have four transmitter→receiver distances).
const maxCols = 4

// batchEval describes one sweep family to the batched engine.
type batchEval struct {
	// cols is how many leading arena columns draw fills with distances;
	// the engine converts each to SNR in place with PathLoss.SNRAtSlice.
	cols int
	// draw consumes trial j's RNG stream (already seeded for the global
	// trial index) and writes its distance columns at row j.
	draw func(cfg *Config, rng *rand.Rand, col *[maxCols][]float64, j int)
	// gain reduces row j of the (now SNR-valued) columns to the trial's
	// sample.
	gain func(cfg *Config, col *[maxCols][]float64, j int) float64
}

// arena is the per-worker reusable scratch: one RNG on a trialSource,
// reseeded per trial, and the structure-of-arrays columns for one block.
type arena struct {
	rng *rand.Rand
	col [maxCols][]float64
}

func newArena(cols int) *arena {
	a := &arena{rng: rand.New(newTrialSource(0))}
	for k := 0; k < cols; k++ {
		a.col[k] = make([]float64, batchBlock)
	}
	return a
}

// runBlock processes trials [lo, hi): draw pass, column SNR pass, reduce
// pass. done advances once per finished trial, so progress accounting
// under cancellation is exact (a partial final block is simply a shorter
// one — never dropped or double-counted). A panic is recovered and
// attributed to the trial being processed.
func (a *arena) runBlock(cfg *Config, ev batchEval, lo, hi int, out []float64, done *atomic.Int64) (err error) {
	cur := lo
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mc: trial %d panicked: %v\n%s", cur, r, debug.Stack())
		}
	}()
	n := hi - lo
	for j := 0; j < n; j++ {
		cur = lo + j
		a.rng.Seed(cfg.Seed + int64(cur)*trialSeedStride)
		ev.draw(cfg, a.rng, &a.col, j)
	}
	cur = lo // the column kernels span the block; attribute to its start
	for k := 0; k < ev.cols; k++ {
		cfg.PathLoss.SNRAtSlice(a.col[k][:n], a.col[k][:n])
	}
	for j := 0; j < n; j++ {
		cur = lo + j
		out[cur] = ev.gain(cfg, &a.col, j)
		done.Add(1)
	}
	return nil
}

// runBatched evaluates ev once per trial index across a worker pool,
// collecting one sample per trial in order. Trials travel in blocks and
// all per-trial scratch lives in the worker's arena. Each trial's RNG is
// seeded from Config.Seed and the trial index, making the result
// independent of scheduling — and of cancellation: ctx only decides how
// many trials run, never which seed a trial gets. When ctx is cancelled
// the pool stops dispatching, drains, and a *PartialError wrapping
// ctx.Err() reports how many trials had already finished. A panic in any
// trial is recovered, annotated with its stack, and surfaced as an error
// instead of taking down the process.
func runBatched(parent context.Context, cfg Config, ev batchEval) ([]float64, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var tm obs.Timer
	if cfg.Metrics != nil {
		tm = obs.StartTimer()
	}

	var done atomic.Int64
	out := make([]float64, cfg.Trials)
	blocks := (cfg.Trials + batchBlock - 1) / batchBlock
	workers := runtime.GOMAXPROCS(0)
	if workers > blocks {
		workers = blocks
	}
	next := make(chan int)
	go func() {
		defer close(next)
		for b := 0; b < blocks; b++ {
			select {
			case next <- b:
			case <-ctx.Done():
				return
			}
		}
	}()

	var (
		wg      sync.WaitGroup
		failMu  sync.Mutex
		failErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			a := newArena(ev.cols)
			for b := range next {
				lo := b * batchBlock
				hi := lo + batchBlock
				if hi > cfg.Trials {
					hi = cfg.Trials
				}
				if err := a.runBlock(&cfg, ev, lo, hi, out, &done); err != nil {
					failMu.Lock()
					if failErr == nil {
						failErr = err
					}
					failMu.Unlock()
					cancel() // stop dispatching further blocks
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := finishSweep(cfg, tm, done.Load(), parent, failErr); err != nil {
		return nil, err
	}
	return out, nil
}

// twoReceiverEval describes the Fig. 6 / Fig. 11 two-receiver sweeps: four
// distance columns (T1→R1, T2→R1, T1→R2, T2→R2, the core.Cross matrix
// layout) reduced through twoReceiverGain.
func twoReceiverEval(tech Technique) batchEval {
	return batchEval{
		cols: 4,
		draw: func(cfg *Config, rng *rand.Rand, col *[maxCols][]float64, j int) {
			pl := topo.PlaceTwoLinks(rng, cfg.Separation, cfg.Range)
			col[0][j] = pl.T1.Dist(pl.R1)
			col[1][j] = pl.T2.Dist(pl.R1)
			col[2][j] = pl.T1.Dist(pl.R2)
			col[3][j] = pl.T2.Dist(pl.R2)
		},
		gain: func(cfg *Config, col *[maxCols][]float64, j int) float64 {
			var x core.Cross
			x.S[0][0] = col[0][j]
			x.S[0][1] = col[1][j]
			x.S[1][0] = col[2][j]
			x.S[1][1] = col[3][j]
			return twoReceiverGain(*cfg, tech, x)
		},
	}
}

// sameReceiverEval describes the Fig. 11 common-receiver sweep: two
// transmitter→receiver distance columns reduced through sameReceiverGain.
func sameReceiverEval(tech Technique) batchEval {
	return batchEval{
		cols: 2,
		draw: func(cfg *Config, rng *rand.Rand, col *[maxCols][]float64, j int) {
			rx := topo.Point{}
			t1 := topo.UniformInDisc(rng, rx, cfg.Range)
			t2 := topo.UniformInDisc(rng, rx, cfg.Range)
			col[0][j] = rx.Dist(t1)
			col[1][j] = rx.Dist(t2)
		},
		gain: func(cfg *Config, col *[maxCols][]float64, j int) float64 {
			return sameReceiverGain(*cfg, tech, core.Pair{S1: col[0][j], S2: col[1][j]})
		},
	}
}
