package experiments_test

import (
	"context"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// TestSuiteMemoLivesOneRun: the drivers of one runner.Run share one upload
// study, and the next Run computes its own, so nothing outlives a suite.
func TestSuiteMemoLivesOneRun(t *testing.T) {
	var studies []any
	probe := func(id string) experiments.Runner {
		return experiments.Runner{ID: id, Title: "upload study probe", Run: func(ctx context.Context, p experiments.Params) (experiments.Result, error) {
			st, err := experiments.StudyOf(ctx, p)
			studies = append(studies, st)
			return experiments.Result{ID: id, Metrics: map[string]float64{"probed": 1}}, err
		}}
	}
	suite := []experiments.Runner{probe("probe-a"), probe("probe-b")}
	for run := 0; run < 2; run++ {
		rep, err := runner.Run(context.Background(), suite, runner.Options{Params: experiments.QuickParams(), OutDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() != 0 {
			t.Fatalf("run %d:\n%s", run, rep.Render())
		}
	}
	if len(studies) != 4 {
		t.Fatalf("%d probes ran, want 4", len(studies))
	}
	if studies[0] != studies[1] || studies[2] != studies[3] {
		t.Error("drivers of one Run computed separate studies")
	}
	if studies[0] == studies[2] {
		t.Error("the second Run reused the first Run's study")
	}
}
