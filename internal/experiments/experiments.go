// Package experiments maps every figure of the paper's evaluation to a
// runnable driver. Each driver regenerates its figure's data from the
// library, renders it (ASCII heatmap/CDF plus CSV), and reports the
// headline metrics that EXPERIMENTS.md compares against the paper's claims.
//
// The drivers are shared by cmd/sicfig (full-resolution figure regeneration)
// and the repository's bench harness (smaller parameter sets, one benchmark
// per figure).
package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/mc"
	"repro/internal/phy"
)

// Params tunes the experiment workload. The zero value is invalid; use
// DefaultParams (paper-scale) or QuickParams (CI/bench scale).
type Params struct {
	// Trials is the Monte-Carlo sample count per configuration.
	Trials int
	// Seed drives all randomness.
	Seed int64
	// GridN is the lattice resolution of heatmap figures (GridN×GridN).
	GridN int
	// TraceDays scales the synthetic trace length for Figs. 13-14.
	TraceDays int
	// PacketBits is the packet size for all completion-time formulas.
	PacketBits float64
	// Channel supplies bandwidth and noise.
	Channel phy.Channel
	// MC, when non-nil, receives Monte-Carlo throughput metrics from every
	// sweep a figure runs. Excluded from JSON so attaching instrumentation
	// never changes checkpoint keys (runner.ParamsKey hashes this struct).
	MC *mc.Metrics `json:"-"`
}

// DefaultParams mirrors the paper's scale: 10 000 Monte-Carlo trials,
// fine heatmap grids, a two-week trace.
func DefaultParams() Params {
	return Params{
		Trials:     10000,
		Seed:       1,
		GridN:      101,
		TraceDays:  14,
		PacketBits: 12000,
		Channel:    phy.Wifi20MHz,
	}
}

// QuickParams is a reduced workload for tests and benchmarks.
func QuickParams() Params {
	p := DefaultParams()
	p.Trials = 1500
	p.GridN = 41
	p.TraceDays = 2
	return p
}

func (p Params) validate() error {
	switch {
	case p.Trials <= 0:
		return fmt.Errorf("experiments: Trials must be positive")
	case p.GridN < 3:
		return fmt.Errorf("experiments: GridN must be at least 3")
	case p.TraceDays <= 0:
		return fmt.Errorf("experiments: TraceDays must be positive")
	case p.PacketBits <= 0:
		return fmt.Errorf("experiments: PacketBits must be positive")
	case p.Channel.BandwidthHz <= 0:
		return fmt.Errorf("experiments: Channel is required")
	}
	return nil
}

// Result is one regenerated figure.
type Result struct {
	// ID is the experiment key, e.g. "fig4".
	ID string
	// Title describes what the figure shows.
	Title string
	// Text is the rendered figure (ASCII art plus a numbers block).
	Text string
	// Files maps output filenames (e.g. "fig4.csv") to their contents.
	Files map[string]string
	// Metrics holds the headline numbers, keyed by a stable name.
	Metrics map[string]float64
}

// MetricsBlock renders the metrics sorted by key, for embedding in Text and
// EXPERIMENTS.md.
func (r Result) MetricsBlock() string {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("  %-42s %.4g\n", k, r.Metrics[k])
	}
	return out
}

// Runner is a figure driver. Run observes ctx between expensive phases —
// grid rows, trial batches, trace snapshots — and returns ctx's error when
// cancelled, so suite-level deadlines propagate into long sweeps without
// affecting the deterministic per-trial seeding.
type Runner struct {
	ID    string
	Title string
	Run   func(ctx context.Context, p Params) (Result, error)
}

// All lists every figure driver in paper order.
func All() []Runner {
	return []Runner{
		{"fig2", "Aggregate capacity of two transmitters with SIC", Fig2},
		{"fig3", "Relative capacity gain heatmap (C+SIC / C-SIC)", Fig3},
		{"fig4", "Same-receiver completion-time gain heatmap (Z-SIC / Z+SIC)", Fig4},
		{"fig6", "Two-receiver Monte-Carlo gain CDFs per range", Fig6},
		{"fig8", "Two-APs-to-one-client download gain heatmap", Fig8},
		{"fig10", "Client pairing / power control / multirate / packing illustration", Fig10},
		{"fig11", "Technique comparison CDFs (one- and two-receiver)", Fig11},
		{"fig12", "SIC-aware scheduling as minimum-weight perfect matching", Fig12},
		{"fig13", "Trace-driven upload pairing gains", Fig13},
		{"fig14", "Trace-driven two-pair download gains (arbitrary & 802.11g rates)", Fig14},
	}
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
