package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/phy"
	"repro/internal/plot"
	"repro/internal/rates"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig13 regenerates the trace-driven upload evaluation: for every topology
// snapshot with at least two backlogged clients, run the SIC-aware pairing
// scheduler and record the gain over serial upload — plain, with power
// control, and with multirate packetization. The trace is synthetic (see
// package trace and DESIGN.md "Substitutions").
func Fig13(ctx context.Context, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	st, err := studyFor(ctx, p)
	if err != nil {
		return Result{}, err
	}
	usable := len(st.snaps)
	if usable == 0 {
		return Result{}, fmt.Errorf("fig13: trace produced no snapshots with ≥2 clients")
	}

	metrics := map[string]float64{"usable_snapshots": float64(usable)}
	var series []plot.Series
	gains := make([]float64, usable)
	for vi, v := range uploadVariants {
		totals, err := st.totals(ctx, vi)
		if err != nil {
			return Result{}, fmt.Errorf("fig13: %w", err)
		}
		for i, t := range totals {
			gains[i] = t.gain()
		}
		e, err := stats.NewECDF(gains)
		if err != nil {
			return Result{}, err
		}
		series = append(series, plot.SeriesFromECDF(v.name, e))
		key := strings.NewReplacer(" ", "_", "+", "_", "-", "_").Replace(strings.ToLower(v.name))
		metrics["median_gain_"+key] = e.Quantile(0.5)
		metrics["frac_over_20pct_"+key] = e.FracAbove(1.2)
	}

	var csv strings.Builder
	if err := plot.WriteSeriesCSV(&csv, "gain", series...); err != nil {
		return Result{}, err
	}
	r := Result{
		ID:    "fig13",
		Title: "Trace-driven upload pairing gains",
		Files: map[string]string{
			"fig13.csv": csv.String(),
			"fig13.svg": plot.CDFPlotSVG("Fig. 13 — trace-driven client pairing (upload)", series...),
		},
		Metrics: metrics,
	}
	r.Text = plot.CDFPlot("Fig. 13 — trace-driven client pairing (upload)", 64, 16, series...) + r.MetricsBlock()
	return r, nil
}

// Fig14 regenerates the trace-driven download evaluation: pairs of AP→client
// links drawn from the synthetic SNR survey, evaluated (a) at ideal
// arbitrary bitrates and (b) at the discrete 802.11g rates, each with and
// without packet packing.
func Fig14(ctx context.Context, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	cfg := trace.DefaultGenConfig(p.Seed)
	survey, err := trace.GenerateSurvey(cfg, 100)
	if err != nil {
		return Result{}, err
	}

	crosses := surveyPairs(survey)
	if len(crosses) == 0 {
		return Result{}, fmt.Errorf("fig14: survey produced no valid link pairs")
	}

	// The two halves of the figure use the paper's two methodologies:
	//
	//   (a) "arbitrary bitrates" — the closed-form Eqs. (7)-(9) evaluated on
	//       the recorded SNRs; CaseA contributes no SIC gain, exactly as in
	//       the Fig. 6 accounting.
	//   (b) "discrete bitrates" — the log terms replaced by the actual
	//       802.11g rates sustained under interference; this embeds the
	//       quantisation slack (an interference-limited link often keeps its
	//       whole rate bin), which is where SIC deployments win.
	discrete := rates.Dot11g.RateFunc()

	kinds := []struct {
		name string
		gain func(core.Cross) float64
	}{
		{"arbitrary", func(x core.Cross) float64 {
			return x.Gain(p.Channel, p.PacketBits)
		}},
		{"arbitrary+packing", func(x core.Cross) float64 {
			g := x.Gain(p.Channel, p.PacketBits)
			if pg, ok := x.CrossPack(p.Channel, p.PacketBits); ok && pg > g {
				g = pg
			}
			return g
		}},
		{"802.11g", func(x core.Cross) float64 {
			return x.GainRate(discrete, p.PacketBits)
		}},
		{"802.11g+packing", func(x core.Cross) float64 {
			g := x.GainRate(discrete, p.PacketBits)
			if pg, ok := x.CrossPackRate(discrete, p.PacketBits); ok && pg > g {
				g = pg
			}
			return g
		}},
	}
	samples := make([][]float64, len(kinds))
	for xi, x := range crosses {
		if xi%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		for ki, k := range kinds {
			samples[ki] = append(samples[ki], k.gain(x))
		}
	}

	metrics := map[string]float64{"link_pairs": float64(len(crosses))}
	var seriesA, seriesB []plot.Series
	for ki, k := range kinds {
		e, err := stats.NewECDF(samples[ki])
		if err != nil {
			return Result{}, err
		}
		s := plot.SeriesFromECDF(k.name, e)
		if strings.HasPrefix(k.name, "arbitrary") {
			seriesA = append(seriesA, s)
		} else {
			seriesB = append(seriesB, s)
		}
		key := strings.NewReplacer("+", "_", ".", "_").Replace(k.name)
		frac, lo, hi := e.FracAboveCI(1.2)
		metrics["frac_over_20pct_"+key] = frac
		metrics["frac_over_20pct_"+key+"_ci_lo"] = lo
		metrics["frac_over_20pct_"+key+"_ci_hi"] = hi
		metrics["median_gain_"+key] = e.Quantile(0.5)
	}

	var csvA, csvB strings.Builder
	if err := plot.WriteSeriesCSV(&csvA, "gain", seriesA...); err != nil {
		return Result{}, err
	}
	if err := plot.WriteSeriesCSV(&csvB, "gain", seriesB...); err != nil {
		return Result{}, err
	}
	r := Result{
		ID:    "fig14",
		Title: "Trace-driven two-pair download gains",
		Files: map[string]string{
			"fig14a.csv": csvA.String(),
			"fig14b.csv": csvB.String(),
			"fig14a.svg": plot.CDFPlotSVG("Fig. 14a — arbitrary bitrates", seriesA...),
			"fig14b.svg": plot.CDFPlotSVG("Fig. 14b — discrete 802.11g bitrates", seriesB...),
		},
		Metrics: metrics,
	}
	r.Text = plot.CDFPlot("Fig. 14a — arbitrary bitrates", 64, 16, seriesA...) +
		"\n" +
		plot.CDFPlot("Fig. 14b — discrete 802.11g bitrates", 64, 16, seriesB...) +
		r.MetricsBlock()
	return r, nil
}

// surveyPairs forms the two-transmitter/two-receiver topologies of the
// paper's download study: every combination of two surveyed client
// locations served by two *distinct* APs. The serving AP is NOT restricted
// to the strongest one — as in residential WLANs (§4.2), a client may be
// tied to a particular AP, and those are exactly the scenarios where SIC
// has any opening. Scenarios whose serving link cannot sustain even the
// lowest 802.11g rate (6 dB) are discarded as unserviceable.
func surveyPairs(survey []trace.SurveyPoint) []core.Cross {
	const minServeDB = 6.0

	// Deterministic AP name order.
	apSet := map[string]bool{}
	for _, pt := range survey {
		for ap := range pt.SNRdB {
			apSet[ap] = true
		}
	}
	aps := make([]string, 0, len(apSet))
	for ap := range apSet {
		aps = append(aps, ap)
	}
	sort.Strings(aps)

	var out []core.Cross
	for i := 0; i < len(survey); i++ {
		for j := i + 1; j < len(survey); j++ {
			for _, apA := range aps {
				for _, apB := range aps {
					if apA == apB {
						continue
					}
					sI, okI := survey[i].SNRdB[apA]
					sJ, okJ := survey[j].SNRdB[apB]
					if !okI || !okJ || sI < minServeDB || sJ < minServeDB {
						continue
					}
					var x core.Cross
					x.S[0][0] = phy.FromDB(sI)
					x.S[0][1] = phy.FromDB(survey[i].SNRdB[apB])
					x.S[1][0] = phy.FromDB(survey[j].SNRdB[apA])
					x.S[1][1] = phy.FromDB(sJ)
					if x.Valid() {
						out = append(out, x)
					}
				}
			}
		}
	}
	return out
}
