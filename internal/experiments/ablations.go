package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/mac"
	"repro/internal/mc"
	"repro/internal/phy"
	"repro/internal/sched"
	"repro/internal/stats"
)

// This file implements the ablations DESIGN.md calls out: each isolates one
// design choice or assumption and quantifies how much it matters.

// AblationAlpha re-runs the Fig. 6 Monte-Carlo under different path-loss
// exponents. The paper (§3.2): "gains from lower path-loss exponents ... are
// even lower".
func AblationAlpha(ctx context.Context, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	alphas := []float64{2.5, 3, 4}
	metrics := map[string]float64{}
	var text strings.Builder
	text.WriteString("Ablation — path-loss exponent α in the two-receiver Monte-Carlo\n")
	var prevFracGain float64
	for i, alpha := range alphas {
		pl, err := phy.NewPathLoss(alpha, 1, 60)
		if err != nil {
			return Result{}, err
		}
		cfg := mc.Config{
			Trials: p.Trials, Seed: p.Seed,
			Separation: 20, Range: 20,
			PathLoss: pl, Channel: p.Channel, PacketBits: p.PacketBits,
			Metrics: p.MC,
		}
		gains, err := mc.TwoReceiverGains(ctx, cfg)
		if err != nil {
			return Result{}, err
		}
		e, err := stats.NewECDF(gains)
		if err != nil {
			return Result{}, err
		}
		fracGain := e.FracAbove(1.0)
		metrics[fmt.Sprintf("frac_with_gain_alpha_%.1f", alpha)] = fracGain
		fmt.Fprintf(&text, "  α=%.1f: %.1f%% of topologies gain at all, max gain %.3f\n",
			alpha, 100*fracGain, e.Max())
		if i > 0 && fracGain+0.02 < prevFracGain {
			// Not fatal — just record the reversal in a metric.
			metrics["alpha_monotonicity_violated"] = 1
		}
		prevFracGain = fracGain
	}
	r := Result{
		ID:      "ablation-alpha",
		Title:   "Path-loss exponent ablation (two-receiver SIC opportunity)",
		Files:   map[string]string{},
		Metrics: metrics,
	}
	r.Text = text.String() + r.MetricsBlock()
	return r, nil
}

// AblationResidual measures how imperfect cancellation erodes the scheduled
// MAC's advantage: end-to-end drain time of the discrete-event simulator as
// the residual-interference fraction grows. The paper's §8 (citing its
// reference [13]) predicts a sharp cut in SIC's usefulness.
func AblationResidual(ctx context.Context, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	stations := []mac.Station{
		{ID: 1, SNR: phy.FromDB(32), Backlog: 4},
		{ID: 2, SNR: phy.FromDB(16), Backlog: 4},
		{ID: 3, SNR: phy.FromDB(28), Backlog: 4},
		{ID: 4, SNR: phy.FromDB(13), Backlog: 4},
		{ID: 5, SNR: phy.FromDB(36), Backlog: 4},
		{ID: 6, SNR: phy.FromDB(19), Backlog: 4},
	}
	opts := sched.Options{Channel: p.Channel, PacketBits: p.PacketBits}

	cfg := mac.DefaultConfig(p.Channel)
	cfg.PacketBits = p.PacketBits
	serial, err := mac.RunSerial(stations, cfg)
	if err != nil {
		return Result{}, err
	}

	metrics := map[string]float64{"serial_drain_s": serial.Duration}
	var text strings.Builder
	text.WriteString("Ablation — residual cancellation vs scheduled-MAC drain time\n")
	fmt.Fprintf(&text, "  serial CSMA baseline: %.4g ms\n", serial.Duration*1e3)
	var prev float64
	for _, beta := range []float64{0, 0.005, 0.02, 0.05} {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		c := cfg
		c.Residual = beta
		res, err := mac.RunScheduled(stations, c, opts)
		if err != nil {
			return Result{}, fmt.Errorf("residual %v: %w", beta, err)
		}
		key := fmt.Sprintf("scheduled_drain_s_beta_%g", beta)
		metrics[key] = res.Duration
		metrics[fmt.Sprintf("decode_failures_beta_%g", beta)] = float64(res.DecodeFailures)
		fmt.Fprintf(&text, "  β=%-5g: drain %.4g ms, %d decode failures, %d rounds\n",
			beta, res.Duration*1e3, res.DecodeFailures, res.Rounds)
		if res.Duration+1e-12 < prev {
			return Result{}, fmt.Errorf("drain time improved as residual grew (β=%v)", beta)
		}
		prev = res.Duration
	}
	r := Result{
		ID:      "ablation-residual",
		Title:   "Imperfect cancellation ablation (end-to-end MAC simulation)",
		Files:   map[string]string{},
		Metrics: metrics,
	}
	r.Text = text.String() + r.MetricsBlock()
	return r, nil
}

// AblationGreedy quantifies what optimal matching buys over best-pair-first
// greedy selection across real(istic) trace snapshots.
func AblationGreedy(ctx context.Context, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	st, err := studyFor(ctx, p)
	if err != nil {
		return Result{}, err
	}
	opt, err := st.totals(ctx, variantPowerControl)
	if err != nil {
		return Result{}, fmt.Errorf("ablation-greedy: %w", err)
	}
	opts := variantOptions(p, variantPowerControl)

	var ratios []float64
	for i, snap := range st.snaps {
		if len(snap.clients) < 4 {
			continue // greedy == optimal for n ≤ 3 almost always; focus on real pools
		}
		gr, err := sched.Greedy(ctx, snap.clients, opts)
		if err != nil {
			return Result{}, fmt.Errorf("ablation-greedy: snapshot %s@%d: %w", snap.ap, snap.unix, err)
		}
		ratios = append(ratios, gr.Total/opt[i].total)
	}
	if len(ratios) == 0 {
		return Result{}, fmt.Errorf("ablation-greedy: no snapshots with ≥4 clients")
	}
	e, err := stats.NewECDF(ratios)
	if err != nil {
		return Result{}, err
	}
	sum, _ := stats.Summarize(ratios)
	r := Result{
		ID:    "ablation-greedy",
		Title: "Greedy pairing vs Edmonds matching on trace snapshots",
		Files: map[string]string{},
		Metrics: map[string]float64{
			"snapshots":            float64(len(ratios)),
			"mean_greedy_over_opt": sum.Mean,
			"p99_greedy_over_opt":  sum.P99,
			"max_greedy_over_opt":  sum.Max,
			"frac_greedy_optimal":  e.At(1 + 1e-9),
		},
	}
	r.Text = fmt.Sprintf(`Ablation — greedy vs optimal matching (%d snapshots, ≥4 clients)
  greedy/optimal drain-time ratio: mean %.4f, p99 %.4f, max %.4f
  greedy already optimal in %.1f%% of snapshots
`, len(ratios), sum.Mean, sum.P99, sum.Max, 100*e.At(1+1e-9)) + r.MetricsBlock()
	return r, nil
}

// Ablations lists the ablation and extension drivers (kept separate from
// All(), which is strictly the paper's figures).
func Ablations() []Runner {
	return []Runner{
		{"ablation-alpha", "Path-loss exponent ablation", AblationAlpha},
		{"ablation-residual", "Imperfect-cancellation ablation", AblationResidual},
		{"ablation-greedy", "Greedy-vs-matching ablation", AblationGreedy},
		{"ext-adaptation", "SIC slack vs bitrate adaptation (extension)", ExtAdaptation},
		{"ext-architectures", "SIC opportunity per wireless architecture (extension)", ExtArchitectures},
		{"ext-load", "Queueing delay vs offered load (extension)", ExtLoad},
		{"ext-phy", "Symbol-level SIC receiver (extension)", ExtPHY},
		{"ext-mesh", "Mesh pipeline throughput with SIC (extension)", ExtMesh},
		{"ext-region", "Two-user capacity region with SIC corners (extension)", ExtRegion},
		{"ext-triples", "Three-way SIC slots vs pairwise matching (extension)", ExtTriples},
	}
}
