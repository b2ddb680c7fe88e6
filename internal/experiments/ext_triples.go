package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/sched"
	"repro/internal/stats"
)

// ExtTriples is an extension experiment beyond the paper's two-signal
// scope: it lets the upload scheduler form slots of up to three concurrent
// clients decoded by a 3-stage SIC chain (the K-signal generalisation the
// paper leaves as future work) and measures what that buys over optimal
// pairwise matching on realistic trace snapshots.
func ExtTriples(ctx context.Context, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	st, err := studyFor(ctx, p)
	if err != nil {
		return Result{}, err
	}
	paired, err := st.totals(ctx, variantPairing)
	if err != nil {
		return Result{}, fmt.Errorf("ext-triples: %w", err)
	}
	opts := variantOptions(p, variantPairing)
	// One grouper serves every snapshot: it is documented to produce exactly
	// the results of its one-shot counterpart (sched.GroupsOfUpTo3) while
	// reusing its candidate scratch between calls.
	var grouper sched.Grouper

	var (
		ratios     []float64 // pairTotal / groupTotal per snapshot (≥ 1 means triples help)
		tripleUsed int
	)
	for i, snap := range st.snaps {
		if len(snap.clients) < 3 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		grouped, err := grouper.Plan(snap.clients, opts)
		if err != nil {
			return Result{}, fmt.Errorf("ext-triples: snapshot %s@%d: %w", snap.ap, snap.unix, err)
		}
		ratios = append(ratios, paired[i].total/grouped.Total)
		for _, sl := range grouped.Slots {
			if len(sl.Members) == 3 {
				tripleUsed++
				break
			}
		}
	}
	usable := len(ratios)
	if usable == 0 {
		return Result{}, fmt.Errorf("ext-triples: no snapshots with ≥3 clients")
	}
	e, err := stats.NewECDF(ratios)
	if err != nil {
		return Result{}, err
	}
	sum, _ := stats.Summarize(ratios)

	metrics := map[string]float64{
		"snapshots":                 float64(usable),
		"mean_pair_over_triple":     sum.Mean,
		"p90_pair_over_triple":      sum.P90,
		"max_pair_over_triple":      sum.Max,
		"frac_triples_help":         e.FracAbove(1 + 1e-9),
		"frac_snapshot_uses_triple": float64(tripleUsed) / float64(usable),
	}
	r := Result{
		ID:      "ext-triples",
		Title:   "Three-way SIC slots vs pairwise matching (extension)",
		Files:   map[string]string{},
		Metrics: metrics,
	}
	var text strings.Builder
	fmt.Fprintf(&text, `Extension — slots of up to 3 concurrent uploaders (3-stage SIC chain)
%d trace snapshots with ≥3 clients.
pairwise-optimal / greedy-grouped drain ratio: mean %.4f, p90 %.4f, max %.4f
triples strictly help in %.1f%% of snapshots; %.1f%% of grouped schedules use one.
`, usable, sum.Mean, sum.P90, sum.Max, 100*e.FracAbove(1+1e-9), 100*metrics["frac_snapshot_uses_triple"])
	if sum.Mean > 1.02 {
		text.WriteString("A third decode stage finds compatible clients often enough to matter here —\n" +
			"the paper's two-signal restriction does leave measurable time on the table\n" +
			"when client populations are dense.\n")
	} else {
		text.WriteString("The third decode stage rarely finds a compatible client, supporting the\n" +
			"paper's two-signal scoping.\n")
	}
	r.Text = text.String() + r.MetricsBlock()
	return r, nil
}
