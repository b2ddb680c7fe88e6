package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/baseband"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/plot"
	"repro/internal/sched"
)

// ExtPHY is an extension experiment that opens the PHY black box: it runs
// the symbol-level SIC receiver (package baseband) and connects its
// imperfections to the MAC results.
//
//  1. Validation: with perfect channel knowledge, the weak signal's symbol
//     error rate after cancellation equals its interference-free SER — the
//     paper's "perfect cancellation" assumption holds at symbol level.
//  2. Estimation: with Np pilot symbols, the residual-interference fraction
//     β ≈ 1/(Np·SNR_strong). The experiment measures β per pilot budget…
//  3. …and feeds each measured β into the discrete-event MAC, reporting the
//     end-to-end drain time. This closes the loop the paper's §8 gestures
//     at: how many pilots buy how much MAC-layer gain.
func ExtPHY(ctx context.Context, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	symbols := p.Trials * 10
	if symbols > 200000 {
		symbols = 200000
	}

	metrics := map[string]float64{}
	var text strings.Builder
	text.WriteString("Extension — symbol-level SIC receiver and the cost of channel estimation\n\n")

	// ---- 1. Perfect-cancellation validation ----
	genie, err := baseband.Run(baseband.Config{
		Mod: baseband.QPSK, SNRStrongDB: 30, SNRWeakDB: 12,
		Symbols: symbols, Pilots: 0, Seed: p.Seed,
	})
	if err != nil {
		return Result{}, err
	}
	metrics["genie_weak_ser"] = genie.SERWeak
	metrics["genie_weak_ser_alone"] = genie.SERWeakAlone
	fmt.Fprintf(&text, "genie-aided (perfect channel): weak SER %.4g vs interference-free %.4g\n\n",
		genie.SERWeak, genie.SERWeakAlone)

	// ---- 2+3. Pilot budget → measured beta → MAC drain ----
	stations := []mac.Station{
		{ID: 1, SNR: phy.FromDB(32), Backlog: 4},
		{ID: 2, SNR: phy.FromDB(16), Backlog: 4},
		{ID: 3, SNR: phy.FromDB(28), Backlog: 4},
		{ID: 4, SNR: phy.FromDB(13), Backlog: 4},
	}
	opts := sched.Options{Channel: p.Channel, PacketBits: p.PacketBits}
	macCfg := mac.DefaultConfig(p.Channel)
	macCfg.PacketBits = p.PacketBits

	serial, err := mac.RunSerial(stations, macCfg)
	if err != nil {
		return Result{}, err
	}
	metrics["serial_drain_s"] = serial.Duration

	fmt.Fprintf(&text, "%8s %14s %16s %14s\n", "pilots", "measured β", "scheduled drain", "vs serial")
	var prevBeta = 1.0
	for _, np := range []int{4, 16, 64, 256} {
		// Average β over seeds: a single channel draw is too noisy.
		var beta float64
		const reps = 25
		for s := int64(0); s < reps; s++ {
			r, err := baseband.Run(baseband.Config{
				Mod: baseband.QPSK, SNRStrongDB: 25, SNRWeakDB: 10,
				Symbols: 256, Pilots: np, Seed: p.Seed + 1000 + s,
			})
			if err != nil {
				return Result{}, err
			}
			beta += r.ResidualBeta
		}
		beta /= reps
		if beta > prevBeta {
			return Result{}, fmt.Errorf("ext-phy: beta grew with pilots (%d → %v)", np, beta)
		}
		prevBeta = beta

		// The AP knows its receiver: it plans rates with the measured β
		// (opts.Residual) while the receiver truly suffers it
		// (cfg.Residual), so no decode fails and the estimation cost shows
		// up purely as derated weak-client rates.
		c := macCfg
		c.Residual = beta
		c.MaxRounds = 10000
		awareOpts := opts
		awareOpts.Residual = beta
		drain, err := mac.RunScheduled(stations, c, awareOpts)
		if err != nil {
			return Result{}, fmt.Errorf("ext-phy: MAC with beta %v: %w", beta, err)
		}
		if drain.DecodeFailures != 0 {
			return Result{}, fmt.Errorf("ext-phy: residual-aware plan still failed %d decodes at β=%v", drain.DecodeFailures, beta)
		}
		key := fmt.Sprintf("_pilots_%d", np)
		metrics["beta"+key] = beta
		metrics["scheduled_drain_s"+key] = drain.Duration
		fmt.Fprintf(&text, "%8d %14.3g %14.4g ms %13.2f×\n",
			np, beta, drain.Duration*1e3, serial.Duration/drain.Duration)
	}

	// ---- ADC saturation: the same draws, received clean and clipped ----
	unclipped := baseband.Config{
		Mod: baseband.QPSK, SNRStrongDB: 40, SNRWeakDB: 10,
		Symbols: symbols, Seed: p.Seed + 9,
	}
	clipped := unclipped
	clipped.ClipAmplitude = 50 // ≈ half the strong signal's amplitude
	pair, err := baseband.Sweep([]baseband.Config{unclipped, clipped})
	if err != nil {
		return Result{}, err
	}
	clean, sat := pair[0], pair[1]
	metrics["weak_ser_no_clip"] = clean.SERWeak
	metrics["weak_ser_clipped"] = sat.SERWeak
	fmt.Fprintf(&text, "\nADC saturation at 30 dB disparity: weak SER %.4g → %.4g when the\n"+
		"front-end clips at half the strong amplitude (the §8 concern).\n",
		clean.SERWeak, sat.SERWeak)

	// ---- SER sweep: the PHY validation curve as a figure ----
	var sweepDB []float64
	var sweep []baseband.Config
	for db := 5.0; db <= 13; db += 0.5 {
		sweepDB = append(sweepDB, db)
		sweep = append(sweep, baseband.Config{
			Mod: baseband.QPSK, SNRStrongDB: 30, SNRWeakDB: db,
			Symbols: symbols, Pilots: 0, Seed: p.Seed + 77,
		})
	}
	sers, err := baseband.Sweep(sweep)
	if err != nil {
		return Result{}, err
	}
	log10 := func(v float64) float64 {
		if v <= 0 {
			v = 0.5 / float64(symbols) // half an error: plot floor
		}
		return math.Log10(v)
	}
	var serSIC, serAlone, serTheory []float64
	for i, res := range sers {
		serSIC = append(serSIC, log10(res.SERWeak))
		serAlone = append(serAlone, log10(res.SERWeakAlone))
		serTheory = append(serTheory, log10(baseband.TheoreticalSER(baseband.QPSK, phy.FromDB(sweepDB[i]))))
	}
	serSVG := plot.XYPlotSVG("Weak-signal SER after SIC (QPSK, strong at 30 dB)",
		"weak SNR (dB)", "log10(SER)",
		plot.Series{Name: "after SIC", X: sweepDB, Y: serSIC},
		plot.Series{Name: "interference-free", X: sweepDB, Y: serAlone},
		plot.Series{Name: "theory", X: sweepDB, Y: serTheory})

	r := Result{
		ID:      "ext-phy",
		Title:   "Symbol-level SIC receiver (extension)",
		Files:   map[string]string{"ext_phy_ser.svg": serSVG},
		Metrics: metrics,
	}
	r.Text = text.String() + r.MetricsBlock()
	return r, nil
}
