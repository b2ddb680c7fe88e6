package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/mc"
	"repro/internal/phy"
	"repro/internal/plot"
	"repro/internal/stats"
)

// mcConfig builds the Monte-Carlo configuration shared by Figs. 6 and 11:
// outdoor-flavoured α=4 path loss with 60 dB at 1 m, per the paper's §3.2.
func mcConfig(p Params, separation, txRange float64) (mc.Config, error) {
	pl, err := phy.NewPathLoss(4, 1, 60)
	if err != nil {
		return mc.Config{}, err
	}
	return mc.Config{
		Trials:     p.Trials,
		Seed:       p.Seed,
		Separation: separation,
		Range:      txRange,
		PathLoss:   pl,
		Channel:    p.Channel,
		PacketBits: p.PacketBits,
		Metrics:    p.MC,
	}, nil
}

// Fig6 regenerates the two-receiver Monte-Carlo CDFs for several ranges.
// The paper's conclusion: no gain from SIC in ≈90% of the cases.
func Fig6(ctx context.Context, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	ranges := []float64{10, 20, 30}
	var series []plot.Series
	metrics := map[string]float64{}
	for _, rg := range ranges {
		cfg, err := mcConfig(p, rg, rg)
		if err != nil {
			return Result{}, err
		}
		gains, err := mc.TwoReceiverGains(ctx, cfg)
		if err != nil {
			return Result{}, err
		}
		e, err := stats.NewECDF(gains)
		if err != nil {
			return Result{}, err
		}
		name := fmt.Sprintf("range=%gm", rg)
		series = append(series, plot.SeriesFromECDF(name, e))
		metrics[fmt.Sprintf("frac_no_gain_range_%g", rg)] = e.At(1)
		frac, lo, hi := e.FracAboveCI(1.2)
		metrics[fmt.Sprintf("frac_gain_over_20pct_range_%g", rg)] = frac
		metrics[fmt.Sprintf("frac_gain_over_20pct_range_%g_ci_lo", rg)] = lo
		metrics[fmt.Sprintf("frac_gain_over_20pct_range_%g_ci_hi", rg)] = hi
		metrics[fmt.Sprintf("max_gain_range_%g", rg)] = e.Max()
	}
	var csv strings.Builder
	if err := plot.WriteSeriesCSV(&csv, "gain", series...); err != nil {
		return Result{}, err
	}
	r := Result{
		ID:    "fig6",
		Title: "Two-receiver Monte-Carlo gain CDFs",
		Files: map[string]string{
			"fig6.csv": csv.String(),
			"fig6.svg": plot.CDFPlotSVG("Fig. 6 — CDF of SIC gain, two transmitters to two receivers", series...),
		},
		Metrics: metrics,
	}
	r.Text = plot.CDFPlot("Fig. 6 — CDF of SIC gain, two transmitters to two receivers", 64, 16, series...) + r.MetricsBlock()
	return r, nil
}

// Fig11 regenerates the §5.5 technique comparison: CDFs of gain for plain
// SIC, SIC+power control, SIC+multirate packetization and SIC+packet
// packing in the one-receiver scenario, plus plain SIC and packing in the
// two-receiver scenario.
func Fig11(ctx context.Context, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	const txRange = 20.0

	oneRx, err := mcConfig(p, txRange, txRange)
	if err != nil {
		return Result{}, err
	}

	metrics := map[string]float64{}
	var oneSeries []plot.Series
	for _, tech := range []mc.Technique{mc.TechSIC, mc.TechPowerControl, mc.TechMultirate, mc.TechPacking} {
		gains, err := mc.SameReceiverGains(ctx, oneRx, tech)
		if err != nil {
			return Result{}, err
		}
		e, err := stats.NewECDF(gains)
		if err != nil {
			return Result{}, err
		}
		oneSeries = append(oneSeries, plot.SeriesFromECDF(tech.String(), e))
		metrics["one_rx_frac_over_20pct_"+metricKey(tech)] = e.FracAbove(1.2)
		metrics["one_rx_median_"+metricKey(tech)] = e.Quantile(0.5)
	}

	var twoSeries []plot.Series
	for _, tech := range []mc.Technique{mc.TechSIC, mc.TechPacking} {
		gains, err := mc.TwoReceiverTechniqueGains(ctx, oneRx, tech)
		if err != nil {
			return Result{}, err
		}
		e, err := stats.NewECDF(gains)
		if err != nil {
			return Result{}, err
		}
		twoSeries = append(twoSeries, plot.SeriesFromECDF(tech.String(), e))
		metrics["two_rx_frac_over_20pct_"+metricKey(tech)] = e.FracAbove(1.2)
	}

	var csvOne, csvTwo strings.Builder
	if err := plot.WriteSeriesCSV(&csvOne, "gain", oneSeries...); err != nil {
		return Result{}, err
	}
	if err := plot.WriteSeriesCSV(&csvTwo, "gain", twoSeries...); err != nil {
		return Result{}, err
	}
	r := Result{
		ID:    "fig11",
		Title: "Technique comparison CDFs",
		Files: map[string]string{
			"fig11a.csv": csvOne.String(),
			"fig11b.csv": csvTwo.String(),
			"fig11a.svg": plot.CDFPlotSVG("Fig. 11a — one receiver: techniques", oneSeries...),
			"fig11b.svg": plot.CDFPlotSVG("Fig. 11b — two receivers: SIC and packing", twoSeries...),
		},
		Metrics: metrics,
	}
	r.Text = plot.CDFPlot("Fig. 11a — one receiver: techniques", 64, 16, oneSeries...) +
		"\n" +
		plot.CDFPlot("Fig. 11b — two receivers: SIC and packing", 64, 16, twoSeries...) +
		r.MetricsBlock()
	return r, nil
}

// metricKey converts a technique name into a stable metrics key fragment.
func metricKey(t mc.Technique) string {
	return strings.NewReplacer("+", "_", "-", "_").Replace(strings.ToLower(t.String()))
}
