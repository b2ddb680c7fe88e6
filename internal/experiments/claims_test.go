package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestPaperScaleClaims checks each verdict row of EXPERIMENTS.md at paper
// scale. It reads the committed results/metrics.json, which the runner's
// TestCommittedResultsReproduce pins to the code, so it recomputes
// nothing. The quick-scale tests next to each driver check the same
// shapes with looser bounds.
func TestPaperScaleClaims(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "results", "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]map[string]float64
	if err := json.Unmarshal(blob, &metrics); err != nil {
		t.Fatal(err)
	}
	get := func(t *testing.T, fig, key string) float64 {
		t.Helper()
		v, ok := metrics[fig][key]
		if !ok {
			t.Fatalf("results/metrics.json has no %s.%s", fig, key)
		}
		return v
	}

	t.Run("fig11 one receiver beats two", func(t *testing.T) {
		one := get(t, "fig11", "one_rx_frac_over_20pct_sic")
		two := get(t, "fig11", "two_rx_frac_over_20pct_sic")
		twoPacking := get(t, "fig11", "two_rx_frac_over_20pct_sic_packing")
		if one <= two {
			t.Errorf(">20%% gain with one receiver %.3f, not above two receivers' %.3f", one, two)
		}
		if twoPacking >= 0.2 {
			t.Errorf("two receivers with packing gain >20%% in %.3f of topologies; the paper says very little", twoPacking)
		}
	})

	t.Run("fig6 no gain in about 90 percent", func(t *testing.T) {
		r10 := get(t, "fig6", "frac_no_gain_range_10")
		r20 := get(t, "fig6", "frac_no_gain_range_20")
		r30 := get(t, "fig6", "frac_no_gain_range_30")
		if r20 < 0.85 || r20 > 0.95 {
			t.Errorf("no-gain fraction at 20 m range %.3f, outside [0.85, 0.95]", r20)
		}
		if !(r10 > r20 && r20 > r30) {
			t.Errorf("no-gain fraction %.3f / %.3f / %.3f at 10 / 20 / 30 m does not fall with range", r10, r20, r30)
		}
	})

	t.Run("fig4 ridge at twice the dB", func(t *testing.T) {
		if off := get(t, "fig4", "mean_ridge_offset_db"); off > 1 {
			t.Errorf("per-row argmax %.3f dB off the 2×-dB line on average, want ≤ 1 dB", off)
		}
	})

	t.Run("alpha ablation monotone", func(t *testing.T) {
		a25 := get(t, "ablation-alpha", "frac_with_gain_alpha_2.5")
		a30 := get(t, "ablation-alpha", "frac_with_gain_alpha_3.0")
		a40 := get(t, "ablation-alpha", "frac_with_gain_alpha_4.0")
		if !(a25 < a30 && a30 < a40) {
			t.Errorf("fraction with gain %.4f / %.4f / %.4f at α = 2.5 / 3 / 4 is not increasing", a25, a30, a40)
		}
	})

	t.Run("matching beats greedy beats serial", func(t *testing.T) {
		if gap := get(t, "fig12", "worst_rel_gap_matching_vs_exact"); gap > 1e-12 {
			t.Errorf("matching departs from exhaustive enumeration by %g relative", gap)
		}
		if ratio := get(t, "ablation-greedy", "mean_greedy_over_opt"); ratio < 1 {
			t.Errorf("greedy drain %.4f× the optimal on average; it cannot beat the optimum", ratio)
		}
		if frac := get(t, "ablation-greedy", "frac_greedy_optimal"); frac >= 1 {
			t.Errorf("greedy optimal in %.3f of snapshots; matching should pay for itself", frac)
		}
		scheduled := get(t, "ablation-residual", "scheduled_drain_s_beta_0")
		serial := get(t, "ablation-residual", "serial_drain_s")
		if scheduled >= serial {
			t.Errorf("scheduled drain %.4g s, not below serial %.4g s", scheduled, serial)
		}
	})

	t.Run("fig14b packing gains in about 40 percent", func(t *testing.T) {
		lo := get(t, "fig14", "frac_over_20pct_802_11g_packing_ci_lo")
		hi := get(t, "fig14", "frac_over_20pct_802_11g_packing_ci_hi")
		packing := get(t, "fig14", "frac_over_20pct_802_11g_packing")
		arbitrary := get(t, "fig14", "frac_over_20pct_arbitrary_packing")
		if lo > 0.40 || hi < 0.40 {
			t.Errorf("802.11g packing >20%% gain CI [%.3f, %.3f] excludes the paper's 0.40", lo, hi)
		}
		if packing <= arbitrary {
			t.Errorf("802.11g packing fraction %.3f not above the arbitrary-rate one %.3f", packing, arbitrary)
		}
	})
}
