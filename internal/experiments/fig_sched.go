package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/phy"
	"repro/internal/sched"
)

// Fig12 validates the paper's reduction of SIC-aware scheduling to
// minimum-weight perfect matching: on random client populations, the
// scheduler's matching-based total must equal an exhaustive enumeration of
// all pairings, and the greedy heuristic is quantified as the ablation.
func Fig12(ctx context.Context, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	opts := sched.Options{Channel: p.Channel, PacketBits: p.PacketBits, PowerControl: true}

	instances := p.Trials / 100
	if instances < 20 {
		instances = 20
	}
	var (
		worstOptVsExh  float64
		greedyExcess   float64
		greedyWorst    float64
		greedyWinCases int
	)
	for trial := 0; trial < instances; trial++ {
		n := 4 + rng.Intn(7) // 4..10 clients — exhaustive enumeration stays cheap
		clients := make([]sched.Client, n)
		for i := range clients {
			clients[i] = sched.Client{ID: fmt.Sprintf("c%d", i), SNR: phy.FromDB(3 + rng.Float64()*40)}
		}
		s, err := sched.New(ctx, clients, opts)
		if err != nil {
			return Result{}, err
		}
		exh, err := exhaustiveBest(ctx, clients, opts)
		if err != nil {
			return Result{}, err
		}
		if d := math.Abs(s.Total-exh) / exh; d > worstOptVsExh {
			worstOptVsExh = d
		}
		g, err := sched.Greedy(ctx, clients, opts)
		if err != nil {
			return Result{}, err
		}
		excess := g.Total/s.Total - 1
		greedyExcess += excess
		if excess > greedyWorst {
			greedyWorst = excess
		}
		if excess > 1e-9 {
			greedyWinCases++
		}
	}

	// A worked 5-client example like the paper's Fig. 12 sketch.
	example := []sched.Client{
		{ID: "A", SNR: phy.FromDB(34)},
		{ID: "B", SNR: phy.FromDB(17)},
		{ID: "C", SNR: phy.FromDB(28)},
		{ID: "D", SNR: phy.FromDB(14)},
		{ID: "E", SNR: phy.FromDB(22)},
	}
	s, err := sched.New(ctx, example, opts)
	if err != nil {
		return Result{}, err
	}
	var text strings.Builder
	fmt.Fprintf(&text, "Fig. 12 — scheduling via minimum-weight perfect matching\n")
	fmt.Fprintf(&text, "Worked example (5 clients + dummy vertex):\n")
	for _, sl := range s.Slots {
		if sl.Mode == sched.ModeSolo {
			fmt.Fprintf(&text, "  %s alone                     %.3g ms\n", example[sl.A].ID, sl.Time*1e3)
			continue
		}
		fmt.Fprintf(&text, "  %s + %s  %-8s scale=%.2f  %.3g ms\n",
			example[sl.A].ID, example[sl.B].ID, sl.Mode, sl.WeakScale, sl.Time*1e3)
	}
	fmt.Fprintf(&text, "  total %.3g ms (serial baseline %.3g ms, gain %.3f)\n",
		s.Total*1e3, s.SerialBaseline*1e3, s.Gain())

	r := Result{
		ID:    "fig12",
		Title: "SIC-aware scheduling as minimum-weight perfect matching",
		Files: map[string]string{},
		Metrics: map[string]float64{
			"instances":                       float64(instances),
			"worst_rel_gap_matching_vs_exact": worstOptVsExh,
			"greedy_mean_excess":              greedyExcess / float64(instances),
			"greedy_worst_excess":             greedyWorst,
			"greedy_suboptimal_fraction":      float64(greedyWinCases) / float64(instances),
			"example_gain":                    s.Gain(),
		},
	}
	r.Text = text.String() + r.MetricsBlock()
	if worstOptVsExh > 1e-6 {
		return Result{}, fmt.Errorf("fig12: matching deviated from exhaustive optimum by %v", worstOptVsExh)
	}
	return r, nil
}

// exhaustiveBest enumerates every pairing (with at most one solo client for
// odd n) and returns the minimum total drain time under the same cost model
// the scheduler uses.
func exhaustiveBest(ctx context.Context, clients []sched.Client, opts sched.Options) (float64, error) {
	n := len(clients)
	// Each pair's cost is its 2-client schedule and each client's solo cost
	// its 1-client schedule, so the oracle reads the exact production cost
	// model rather than duplicating it. Both are tabulated once per
	// instance; pair[i*n+j] holds i < j.
	pair := make([]float64, n*n)
	solo := make([]float64, n)
	for i := range clients {
		s, err := sched.New(ctx, []sched.Client{clients[i]}, opts)
		if err != nil {
			return 0, err
		}
		solo[i] = s.Total
		for j := i + 1; j < n; j++ {
			s, err := sched.New(ctx, []sched.Client{clients[i], clients[j]}, opts)
			if err != nil {
				return 0, err
			}
			pair[i*n+j] = s.Total
		}
	}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	best := math.Inf(1)
	var rec func(remaining []int, acc float64, soloUsed bool)
	rec = func(remaining []int, acc float64, soloUsed bool) {
		if acc >= best {
			return
		}
		if len(remaining) == 0 {
			best = acc
			return
		}
		first := remaining[0]
		rest := remaining[1:]
		for k := 0; k < len(rest); k++ {
			next := make([]int, 0, len(rest)-1)
			next = append(next, rest[:k]...)
			next = append(next, rest[k+1:]...)
			rec(next, acc+pair[first*n+rest[k]], soloUsed)
		}
		if len(remaining)%2 == 1 && !soloUsed {
			rec(rest, acc+solo[first], true)
		}
	}
	rec(idx, 0, false)
	return best, nil
}
