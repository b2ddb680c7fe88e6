package mc

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/stats"
)

func testConfig(trials int) Config {
	pl, err := phy.NewPathLoss(4, 1, 60)
	if err != nil {
		panic(err)
	}
	return Config{
		Trials: trials,
		Seed:   1,
		// The paper separates transmitters by the range itself, so the
		// coverage discs overlap and SIC's topological conditions occur.
		Separation: 20,
		Range:      20,
		PathLoss:   pl,
		Channel:    phy.Wifi20MHz,
		PacketBits: 12000,
	}
}

func TestConfigValidation(t *testing.T) {
	base := testConfig(10)
	bad := base
	bad.Trials = 0
	if _, err := TwoReceiverGains(context.Background(), bad); err == nil {
		t.Error("zero trials accepted")
	}
	bad = base
	bad.Range = 0
	if _, err := TwoReceiverGains(context.Background(), bad); err == nil {
		t.Error("zero range accepted")
	}
	bad = base
	bad.Separation = 0
	if _, err := TwoReceiverGains(context.Background(), bad); err == nil {
		t.Error("zero separation accepted for two-receiver")
	}
	bad = base
	bad.PacketBits = 0
	if _, err := SameReceiverGains(context.Background(), bad, TechSIC); err == nil {
		t.Error("zero packet bits accepted")
	}
	bad = base
	bad.Channel = phy.Channel{}
	if _, err := SameReceiverGains(context.Background(), bad, TechSIC); err == nil {
		t.Error("zero channel accepted")
	}
	bad = base
	bad.PathLoss = phy.PathLoss{}
	if _, err := SameReceiverGains(context.Background(), bad, TechSIC); err == nil {
		t.Error("zero path loss accepted")
	}
}

func TestTwoReceiverGainsMatchPaperShape(t *testing.T) {
	// Fig. 6's headline: no gain from SIC in ~90% of random two-receiver
	// topologies. Allow a generous band around the paper's number.
	gains, err := TwoReceiverGains(context.Background(), testConfig(5000))
	if err != nil {
		t.Fatal(err)
	}
	e, err := stats.NewECDF(gains)
	if err != nil {
		t.Fatal(err)
	}
	noGain := e.At(1.0)
	if noGain < 0.70 || noGain > 0.999 {
		t.Errorf("fraction with no SIC gain = %v, want the large majority (paper: ≈0.9)", noGain)
	}
	for _, g := range gains {
		if g < 1-1e-12 {
			t.Fatalf("gain %v below 1", g)
		}
	}
}

func TestTwoReceiverGainsDeterministic(t *testing.T) {
	a, err := TwoReceiverGains(context.Background(), testConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	b, err := TwoReceiverGains(context.Background(), testConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d differs between identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSameReceiverTechniqueOrdering(t *testing.T) {
	// Fig. 11a: every technique dominates plain SIC in distribution, and
	// plain SIC itself yields gains ≥ 1.
	cfg := testConfig(4000)
	sic, err := SameReceiverGains(context.Background(), cfg, TechSIC)
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []Technique{TechPowerControl, TechMultirate, TechPacking} {
		withTech, err := SameReceiverGains(context.Background(), cfg, tech)
		if err != nil {
			t.Fatal(err)
		}
		// Identical seeds → same topology per index → pointwise comparison
		// is meaningful.
		worse := 0
		for i := range sic {
			if withTech[i] < sic[i]-1e-9 {
				worse++
			}
		}
		if worse > 0 {
			t.Errorf("%v made %d/%d topologies worse than plain SIC", tech, worse, len(sic))
		}
	}
}

func TestSameReceiverSICGainBand(t *testing.T) {
	// Fig. 11a: plain SIC gains over 20% in roughly 20% of topologies —
	// modest but real. Accept a broad band.
	gains, err := SameReceiverGains(context.Background(), testConfig(5000), TechSIC)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := stats.NewECDF(gains)
	frac := e.FracAbove(1.2)
	if frac < 0.03 || frac > 0.6 {
		t.Errorf("fraction of one-receiver topologies with >20%% SIC gain = %v, want a modest minority (paper: ≈0.2)", frac)
	}
}

func TestTechniquesBeatPlainSICInAggregate(t *testing.T) {
	// Fig. 11a: with a mechanism, >20% gain in ~40% of topologies — roughly
	// double plain SIC's fraction. Check the aggregate ordering.
	cfg := testConfig(5000)
	sic, _ := SameReceiverGains(context.Background(), cfg, TechSIC)
	pc, _ := SameReceiverGains(context.Background(), cfg, TechPowerControl)
	eSIC, _ := stats.NewECDF(sic)
	ePC, _ := stats.NewECDF(pc)
	if ePC.FracAbove(1.2) <= eSIC.FracAbove(1.2) {
		t.Errorf("power control should raise the >20%%-gain fraction: %v vs %v",
			ePC.FracAbove(1.2), eSIC.FracAbove(1.2))
	}
}

func TestTwoReceiverTechniqueGains(t *testing.T) {
	cfg := testConfig(4000)
	plain, err := TwoReceiverTechniqueGains(context.Background(), cfg, TechSIC)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := TwoReceiverTechniqueGains(context.Background(), cfg, TechPacking)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if packed[i] < plain[i]-1e-9 {
			t.Fatalf("packing made topology %d worse: %v < %v", i, packed[i], plain[i])
		}
	}
	// Fig. 11b: even with optimisations the two-receiver case gains little.
	ePacked, _ := stats.NewECDF(packed)
	if frac := ePacked.FracAbove(1.2); frac > 0.5 {
		t.Errorf("two-receiver packing >20%% gain fraction = %v; paper says very little gain", frac)
	}
}

func TestTechniqueString(t *testing.T) {
	want := map[Technique]string{
		TechSIC:          "SIC",
		TechPowerControl: "SIC+power-control",
		TechMultirate:    "SIC+multirate",
		TechPacking:      "SIC+packing",
		Technique(42):    "unknown-technique",
	}
	for tech, s := range want {
		if tech.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(tech), tech.String(), s)
		}
	}
}

func TestCancelledContextAbortsSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TwoReceiverGains(ctx, testConfig(100000)); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestCancellationDoesNotPerturbSeeding(t *testing.T) {
	// Cancellation must only decide how many trials run, never which seed a
	// trial index gets: a full run after a cancelled run is still identical
	// to a fresh full run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _ = TwoReceiverGains(ctx, testConfig(500))
	a, err := TwoReceiverGains(context.Background(), testConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	b, err := TwoReceiverGains(context.Background(), testConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d differs after a cancelled run: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPartialErrorReportsProgress pins satellite-3's contract: a cancelled
// sweep surfaces how many trials finished, wrapped so errors.Is still
// classifies it as the context error.
func TestPartialErrorReportsProgress(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := TwoReceiverGains(ctx, testConfig(100000))
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PartialError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("PartialError does not unwrap to context.Canceled: %v", err)
	}
	if pe.Trials != 100000 {
		t.Errorf("Trials = %d, want 100000", pe.Trials)
	}
	if pe.Completed < 0 || pe.Completed > pe.Trials {
		t.Errorf("Completed = %d out of range [0, %d]", pe.Completed, pe.Trials)
	}
	want := "mc: sweep interrupted after"
	if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("error %q missing %q or cause", err, want)
	}
}

func TestMetricsCountCompletedSweep(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(200)
	cfg.Metrics = NewMetrics(reg)
	if _, err := TwoReceiverGains(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Metrics.Trials.Get(); got != 200 {
		t.Errorf("mc_trials_total = %d, want 200", got)
	}
	if got := cfg.Metrics.Sweeps.Get(); got != 1 {
		t.Errorf("mc_sweeps_total = %d, want 1", got)
	}
	if got := cfg.Metrics.SweepSeconds.Count(); got != 1 {
		t.Errorf("mc_sweep_seconds count = %d, want 1", got)
	}
	if got := cfg.Metrics.TrialsPerSec.Get(); got <= 0 {
		t.Errorf("mc_trials_per_second = %v, want > 0", got)
	}
}

func TestMetricsCountInterruptedSweep(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(100000)
	cfg.Metrics = NewMetrics(reg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := TwoReceiverGains(ctx, cfg)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if got := cfg.Metrics.Trials.Get(); got != int64(pe.Completed) {
		t.Errorf("mc_trials_total = %d, want Completed = %d", got, pe.Completed)
	}
	if got := cfg.Metrics.Sweeps.Get(); got != 0 {
		t.Errorf("mc_sweeps_total = %d after interruption, want 0", got)
	}
}
