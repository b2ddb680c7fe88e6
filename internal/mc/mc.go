// Package mc is the Monte-Carlo harness behind the paper's randomised
// evaluations: Fig. 6 (two transmitters to two receivers) and Fig. 11
// (technique comparison). Topologies are drawn exactly as §3.2 describes —
// transmitters a fixed distance apart, receivers uniform within range — and
// every trial derives its RNG deterministically from the config seed, so
// runs are reproducible and parallelisable.
package mc

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/phy"
)

// Config parameterises a Monte-Carlo experiment.
type Config struct {
	// Trials is the number of random topologies (the paper uses 10 000).
	Trials int
	// Seed feeds the per-trial RNGs.
	Seed int64
	// Separation is the transmitter-to-transmitter distance in meters
	// (two-receiver experiments only).
	Separation float64
	// Range is the radius within which each receiver (or transmitter, for
	// the common-receiver experiment) is placed, in meters.
	Range float64
	// PathLoss converts distance to received SNR.
	PathLoss phy.PathLoss
	// Channel supplies bandwidth for all capacity computations.
	Channel phy.Channel
	// PacketBits is the packet size used in all completion-time formulas.
	PacketBits float64
	// Metrics, when non-nil, receives throughput instrumentation: trial
	// counts, sweep wall time and a trials/sec gauge. Timing is read
	// through obs and feeds metrics only — it never influences trial
	// seeding or results, so same-seed reproducibility is untouched.
	Metrics *Metrics
}

// Metrics is the package's observability bundle. Construct with NewMetrics
// over the process registry and share one instance across sweeps.
type Metrics struct {
	// Trials counts completed trials across all sweeps.
	Trials *obs.Counter
	// Sweeps counts sweeps that ran to the end.
	Sweeps *obs.Counter
	// SweepSeconds is the wall-time distribution of whole sweeps.
	SweepSeconds *obs.Histogram
	// TrialsPerSec is the most recent sweep's throughput.
	TrialsPerSec *obs.Gauge
}

// NewMetrics registers the Monte-Carlo metrics on reg. Calling it twice
// with the same registry returns handles to the same underlying series.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Trials:       reg.Counter("mc_trials_total", "Monte-Carlo trials completed", nil),
		Sweeps:       reg.Counter("mc_sweeps_total", "Monte-Carlo sweeps completed", nil),
		SweepSeconds: reg.Histogram("mc_sweep_seconds", "wall time per Monte-Carlo sweep", obs.ExpBuckets(1e-3, 2, 16), nil),
		TrialsPerSec: reg.Gauge("mc_trials_per_second", "throughput of the most recent sweep", nil),
	}
}

// PartialError reports a sweep cut short by context cancellation after
// some trials already completed. Callers that checkpoint or report
// progress (the suite runner) can surface "completed X of Y" instead of
// pretending nothing ran; errors.Is still sees the underlying context
// error, so retry/timeout classification is unchanged.
type PartialError struct {
	// Completed is how many trials finished before the sweep stopped.
	Completed int
	// Trials is the configured sweep size.
	Trials int
	// Err is the context error that stopped the sweep.
	Err error
}

// Error implements error; the first line carries the progress numbers so
// one-line status reports keep them.
func (e *PartialError) Error() string {
	return fmt.Sprintf("mc: sweep interrupted after %d/%d trials: %v", e.Completed, e.Trials, e.Err)
}

// Unwrap exposes the underlying context error to errors.Is/As.
func (e *PartialError) Unwrap() error { return e.Err }

func (c Config) validate() error {
	if c.Trials <= 0 {
		return errors.New("mc: Trials must be positive")
	}
	if c.Range <= 0 {
		return errors.New("mc: Range must be positive")
	}
	if c.PacketBits <= 0 {
		return errors.New("mc: PacketBits must be positive")
	}
	if c.Channel.BandwidthHz <= 0 {
		return errors.New("mc: Channel is required")
	}
	if c.PathLoss.RefSNR <= 0 {
		return errors.New("mc: PathLoss is required")
	}
	return nil
}

// trialSeedStride spreads trial indices across the seed space. It is part
// of the determinism contract: trial i's RNG is seeded to
// Seed + i*trialSeedStride, so scheduling, batching and cancellation can
// never change which random stream a trial consumes.
const trialSeedStride = 0x9e3779b9

// finishSweep folds the end-of-sweep accounting: completed trials always
// count (that is the whole point of the progress accounting), sweep-level
// metrics only on full completion, and the returned error is the worker
// failure, a *PartialError for a sweep the context actually cut short, or
// nil. A sweep whose last trial finished before anyone observed the
// cancellation is complete, not partial: its samples are the same bytes an
// uncancelled run would produce, so it is reported as a success instead of
// being dropped (the counters would otherwise disagree — Metrics.Trials
// says Trials, the error says "interrupted").
func finishSweep(cfg Config, tm obs.Timer, completed int64, parent context.Context, workerErr error) error {
	if m := cfg.Metrics; m != nil {
		m.Trials.Add(completed)
	}
	if workerErr != nil {
		return workerErr
	}
	if err := parent.Err(); err != nil && int(completed) != cfg.Trials {
		return &PartialError{Completed: int(completed), Trials: cfg.Trials, Err: err}
	}
	if m := cfg.Metrics; m != nil {
		m.Sweeps.Inc()
		secs := tm.Elapsed().Seconds()
		m.SweepSeconds.Observe(secs)
		if secs > 0 {
			m.TrialsPerSec.Set(float64(cfg.Trials) / secs)
		}
	}
	return nil
}

// TwoReceiverGains reproduces the Fig. 6 experiment: random two-link
// topologies, SIC gain Z₋SIC/Z₊SIC per topology (1 when SIC is infeasible
// or unneeded). Cancelling ctx aborts the sweep with ctx's error.
func TwoReceiverGains(ctx context.Context, cfg Config) ([]float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Separation <= 0 {
		return nil, errors.New("mc: Separation must be positive for two-receiver experiments")
	}
	return runBatched(ctx, cfg, twoReceiverEval(TechSIC))
}

// Technique labels the §5 mechanisms compared in Fig. 11.
type Technique int

const (
	// TechSIC is plain SIC concurrency with serial fallback.
	TechSIC Technique = iota
	// TechPowerControl is SIC plus §5.2 power reduction.
	TechPowerControl
	// TechMultirate is SIC plus §5.3 multirate packetization.
	TechMultirate
	// TechPacking is SIC plus §5.4 packet packing.
	TechPacking
)

// String implements fmt.Stringer.
func (t Technique) String() string {
	switch t {
	case TechSIC:
		return "SIC"
	case TechPowerControl:
		return "SIC+power-control"
	case TechMultirate:
		return "SIC+multirate"
	case TechPacking:
		return "SIC+packing"
	}
	return "unknown-technique"
}

// SameReceiverGains reproduces the one-receiver half of Fig. 11: random
// two-transmitter/common-receiver topologies (transmitters uniform within
// Range of the receiver) and the gain of the chosen technique over the
// serial baseline. The serial fallback is always available, so samples are
// ≥ 1.
func SameReceiverGains(ctx context.Context, cfg Config, tech Technique) ([]float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return runBatched(ctx, cfg, sameReceiverEval(tech))
}

// sameReceiverGain evaluates the chosen technique's gain over the serial
// baseline for one drawn common-receiver pair.
func sameReceiverGain(cfg Config, tech Technique, p core.Pair) float64 {
	serial := p.SerialTime(cfg.Channel, cfg.PacketBits)
	var t float64
	switch tech {
	case TechPowerControl:
		t = p.SICTimeWithPowerControl(cfg.Channel, cfg.PacketBits)
	case TechMultirate:
		t = p.MultirateTime(cfg.Channel, cfg.PacketBits)
	case TechPacking:
		g := p.PackingGain(cfg.Channel, cfg.PacketBits)
		if g < 1 {
			g = 1
		}
		return g
	default:
		t = p.SICTime(cfg.Channel, cfg.PacketBits)
	}
	if t >= serial {
		return 1
	}
	return serial / t
}

// twoReceiverGain evaluates the per-topology gain of the technique in the
// two-receiver scenario.
func twoReceiverGain(cfg Config, tech Technique, x core.Cross) float64 {
	switch tech {
	case TechPacking:
		base := x.Gain(cfg.Channel, cfg.PacketBits)
		if g, ok := x.CrossPack(cfg.Channel, cfg.PacketBits); ok && g > base {
			return g
		}
		return base
	default:
		return x.Gain(cfg.Channel, cfg.PacketBits)
	}
}

// TwoReceiverTechniqueGains reproduces the two-receiver half of Fig. 11:
// per-topology gain for plain SIC or SIC-with-packing. (Multirate
// packetization is impossible in this scenario — the paper's §5.5 — and
// power control has no lever because each transmission already runs at its
// receiver-limited rate.)
func TwoReceiverTechniqueGains(ctx context.Context, cfg Config, tech Technique) ([]float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Separation <= 0 {
		return nil, errors.New("mc: Separation must be positive for two-receiver experiments")
	}
	return runBatched(ctx, cfg, twoReceiverEval(tech))
}
