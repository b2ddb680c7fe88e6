package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// TestCommittedResultsReproduce pins the committed results/ directory:
// every figure and ablation at paper scale (DefaultParams), run through
// the suite runner, must reproduce results/metrics.json — serialised
// exactly as `sicfig -all -ablations` writes it — and every committed
// CSV/SVG byte for byte.
func TestCommittedResultsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale suite")
	}
	committed := filepath.Join("..", "..", "results")
	out := t.TempDir()
	suite := append(experiments.All(), experiments.Ablations()...)
	rep, err := Run(context.Background(), suite, Options{
		Params:    experiments.DefaultParams(),
		OutDir:    out,
		KeepGoing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 0 {
		t.Fatalf("suite failed:\n%s", rep.Render())
	}
	blob, err := json.MarshalIndent(rep.Metrics, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, "metrics.json"), append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(committed)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(committed, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out, e.Name()))
		if err != nil {
			t.Errorf("%s: not regenerated: %v", e.Name(), err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the committed file: %s", e.Name(), firstDiff(got, want))
		}
	}
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
