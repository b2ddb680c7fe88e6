package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/mc"
	"repro/internal/obs"
)

func testParams() experiments.Params {
	p := experiments.QuickParams()
	p.Trials = 50
	p.GridN = 11
	p.TraceDays = 1
	return p
}

// fixed returns a deterministic fake driver whose metrics and output file
// depend on the params seed, mimicking a real figure.
func fixed(id string, calls *atomic.Int32) experiments.Runner {
	return experiments.Runner{
		ID:    id,
		Title: "fake " + id,
		Run: func(ctx context.Context, p experiments.Params) (experiments.Result, error) {
			if calls != nil {
				calls.Add(1)
			}
			if err := ctx.Err(); err != nil {
				return experiments.Result{}, err
			}
			return experiments.Result{
				ID:      id,
				Title:   "fake " + id,
				Text:    "text",
				Files:   map[string]string{id + ".csv": fmt.Sprintf("x,y\n1,%d\n", p.Seed)},
				Metrics: map[string]float64{"m": float64(p.Seed)},
			}, nil
		},
	}
}

func panicking(id string) experiments.Runner {
	return experiments.Runner{
		ID:    id,
		Title: "always panics",
		Run: func(context.Context, experiments.Params) (experiments.Result, error) {
			panic("boom")
		},
	}
}

func statuses(rep *Report) []Status {
	out := make([]Status, len(rep.Figures))
	for i, f := range rep.Figures {
		out[i] = f.Status
	}
	return out
}

func baseOpts(t *testing.T) Options {
	t.Helper()
	dir := t.TempDir()
	return Options{
		Params:       testParams(),
		OutDir:       filepath.Join(dir, "out"),
		RetryBackoff: time.Millisecond,
		KeepGoing:    true,
	}
}

func TestPanicIsolation(t *testing.T) {
	opts := baseOpts(t)
	var log bytes.Buffer
	opts.Log = &log
	rep, err := Run(context.Background(),
		[]experiments.Runner{fixed("a", nil), panicking("bad"), fixed("b", nil)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := []Status{StatusOK, StatusFailed, StatusOK}
	if got := statuses(rep); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("statuses = %v, want %v", got, want)
	}
	if rep.Failed() != 1 {
		t.Errorf("Failed() = %d, want 1", rep.Failed())
	}
	if bad := rep.Figures[1]; !strings.Contains(bad.Err, "boom") {
		t.Errorf("panic reason not recorded: %q", bad.Err)
	}
	if bad := rep.Figures[1]; bad.Attempts != 1 {
		t.Errorf("panicking figure retried: %d attempts", bad.Attempts)
	}
	if !strings.Contains(log.String(), "goroutine") {
		t.Error("panic stack not logged")
	}
	// The suite kept going: both healthy figures' outputs exist.
	for _, name := range []string{"a.csv", "b.csv"} {
		if _, err := os.Stat(filepath.Join(opts.OutDir, name)); err != nil {
			t.Errorf("missing output %s: %v", name, err)
		}
	}
}

func TestTransientFailureRetriesWithBackoff(t *testing.T) {
	opts := baseOpts(t)
	opts.Retries = 3
	var calls atomic.Int32
	flaky := experiments.Runner{
		ID: "flaky",
		Run: func(ctx context.Context, p experiments.Params) (experiments.Result, error) {
			if calls.Add(1) < 3 {
				return experiments.Result{}, errors.New("transient blip")
			}
			return experiments.Result{ID: "flaky", Title: "t", Text: "x",
				Metrics: map[string]float64{"m": 1}}, nil
		},
	}
	rep, err := Run(context.Background(), []experiments.Runner{flaky}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Figures[0].Status != StatusOK || rep.Figures[0].Attempts != 3 {
		t.Errorf("got %s after %d attempts, want ok after 3",
			rep.Figures[0].Status, rep.Figures[0].Attempts)
	}
}

func TestRetryExhaustionFails(t *testing.T) {
	opts := baseOpts(t)
	opts.Retries = 1
	var calls atomic.Int32
	broken := experiments.Runner{
		ID: "broken",
		Run: func(context.Context, experiments.Params) (experiments.Result, error) {
			calls.Add(1)
			return experiments.Result{}, errors.New("still down")
		},
	}
	rep, err := Run(context.Background(), []experiments.Runner{broken}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Figures[0].Status != StatusFailed || calls.Load() != 2 {
		t.Errorf("got %s after %d calls, want failed after 2", rep.Figures[0].Status, calls.Load())
	}
}

func TestPerFigureDeadline(t *testing.T) {
	opts := baseOpts(t)
	opts.FigTimeout = 20 * time.Millisecond
	stuck := experiments.Runner{
		ID: "stuck",
		Run: func(ctx context.Context, p experiments.Params) (experiments.Result, error) {
			<-ctx.Done()
			return experiments.Result{}, ctx.Err()
		},
	}
	rep, err := Run(context.Background(), []experiments.Runner{stuck, fixed("after", nil)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The deadline is per figure: the next figure still runs.
	want := []Status{StatusTimedOut, StatusOK}
	if got := statuses(rep); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("statuses = %v, want %v", got, want)
	}
}

func TestSuiteCancellationMarksRemainingTimedOut(t *testing.T) {
	opts := baseOpts(t)
	ctx, cancel := context.WithCancel(context.Background())
	interrupter := experiments.Runner{
		ID: "interrupter",
		Run: func(ctx context.Context, p experiments.Params) (experiments.Result, error) {
			cancel() // simulates SIGINT / -timeout firing mid-figure
			return experiments.Result{}, ctx.Err()
		},
	}
	rep, err := Run(ctx, []experiments.Runner{fixed("first", nil), interrupter, fixed("rest", nil)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := []Status{StatusOK, StatusTimedOut, StatusTimedOut}
	if got := statuses(rep); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("statuses = %v, want %v", got, want)
	}
}

func TestKeepGoingOffSkipsRemainder(t *testing.T) {
	opts := baseOpts(t)
	opts.KeepGoing = false
	rep, err := Run(context.Background(),
		[]experiments.Runner{panicking("bad"), fixed("a", nil), fixed("b", nil)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := []Status{StatusFailed, StatusSkipped, StatusSkipped}
	if got := statuses(rep); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("statuses = %v, want %v", got, want)
	}
}

func TestResumeServesCheckpointsAndInvalidatesOnParamsChange(t *testing.T) {
	opts := baseOpts(t)
	var calls atomic.Int32
	suite := []experiments.Runner{fixed("a", &calls)}

	first, err := Run(context.Background(), suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	second, err := Run(context.Background(), suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Figures[0].Status != StatusCached {
		t.Fatalf("status = %s, want skipped-cached", second.Figures[0].Status)
	}
	if calls.Load() != 1 {
		t.Errorf("driver ran %d times, want 1 (second run cached)", calls.Load())
	}
	if fmt.Sprint(first.Metrics) != fmt.Sprint(second.Metrics) {
		t.Errorf("cached metrics differ: %v vs %v", first.Metrics, second.Metrics)
	}

	// Changed params hash → cache invalid → recompute, not stale data.
	opts.Params.Seed = 42
	third, err := Run(context.Background(), suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	if third.Figures[0].Status != StatusOK {
		t.Fatalf("after params change status = %s, want ok", third.Figures[0].Status)
	}
	if calls.Load() != 2 {
		t.Errorf("driver ran %d times, want 2 after params change", calls.Load())
	}
	if third.Metrics["a"]["m"] != 42 {
		t.Errorf("recomputed metric = %v, want the new seed's value 42", third.Metrics["a"]["m"])
	}
}

func TestSeedSpreadUnavailableIsRecordedNotFatal(t *testing.T) {
	opts := baseOpts(t)
	opts.Seeds = 3
	base := opts.Params.Seed
	moody := experiments.Runner{
		ID: "moody",
		Run: func(ctx context.Context, p experiments.Params) (experiments.Result, error) {
			if p.Seed != base {
				return experiments.Result{}, fmt.Errorf("extra seed %d exploded", p.Seed)
			}
			return experiments.Result{ID: "moody", Title: "t", Text: "x",
				Metrics: map[string]float64{"m": 1}}, nil
		},
	}
	rep, err := Run(context.Background(), []experiments.Runner{moody, fixed("tail", nil)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Figures[0]
	if f.Status != StatusOK || !f.SpreadUnavailable {
		t.Fatalf("got status=%s spreadUnavailable=%v, want ok with spread unavailable",
			f.Status, f.SpreadUnavailable)
	}
	if _, ok := rep.Metrics["moody"]["m_seed_min"]; ok {
		t.Error("partial spread metrics leaked into the report")
	}
	if !strings.Contains(rep.Render(), "seed spread unavailable") {
		t.Error("report does not count the unavailable spread")
	}
	if rep.Failed() != 0 {
		t.Errorf("Failed() = %d; an unavailable spread must not fail the suite", rep.Failed())
	}
}

// The acceptance-criteria demo: cancel a real suite mid-run, resume it,
// and require the final metrics to be byte-identical to an uninterrupted
// run with the same seed.
func TestKillAndResumeByteIdenticalMetrics(t *testing.T) {
	fig2, _ := experiments.ByID("fig2")
	fig6, _ := experiments.ByID("fig6")
	suite := []experiments.Runner{fig2, fig6}

	metricsBlob := func(rep *Report) []byte {
		blob, err := json.MarshalIndent(rep.Metrics, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	// Reference: uninterrupted run.
	refOpts := baseOpts(t)
	ref, err := Run(context.Background(), suite, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Failed() != 0 {
		t.Fatalf("reference run failed:\n%s", ref.Render())
	}

	// Interrupted run: cancel as soon as the first figure completes.
	opts := baseOpts(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.OnResult = func(experiments.Result, bool) { cancel() }
	killed, err := Run(ctx, suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := []Status{StatusOK, StatusTimedOut}
	if got := statuses(killed); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("interrupted statuses = %v, want %v", got, want)
	}

	// Resume: the finished figure is served from its checkpoint, the rest
	// recomputes, and the metrics match the uninterrupted run byte for byte.
	opts.OnResult = nil
	opts.Resume = true
	resumed, err := Run(context.Background(), suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	want = []Status{StatusCached, StatusOK}
	if got := statuses(resumed); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("resumed statuses = %v, want %v", got, want)
	}
	if !bytes.Equal(metricsBlob(ref), metricsBlob(resumed)) {
		t.Error("resumed metrics differ from the uninterrupted run")
	}
	// Output files match too.
	for name := range ref.Metrics {
		refCSV, err := os.ReadFile(filepath.Join(refOpts.OutDir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		gotCSV, err := os.ReadFile(filepath.Join(opts.OutDir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refCSV, gotCSV) {
			t.Errorf("%s.csv differs between uninterrupted and resumed runs", name)
		}
	}
}

// TestPartialSweepReportsProgress: a driver interrupted mid-sweep returns
// an mc.PartialError; the report row must classify it as timed-out (it
// unwraps to the context error) and keep the completed-trial count in the
// one-line reason — "4200/10000", not a bare deadline message. The
// registry, when attached, records the settled row.
func TestPartialSweepReportsProgress(t *testing.T) {
	opts := baseOpts(t)
	reg := obs.NewRegistry()
	opts.Registry = reg
	interrupted := experiments.Runner{
		ID:    "partial",
		Title: "interrupted sweep",
		Run: func(context.Context, experiments.Params) (experiments.Result, error) {
			return experiments.Result{}, fmt.Errorf("fig: %w",
				&mc.PartialError{Completed: 4200, Trials: 10000, Err: context.DeadlineExceeded})
		},
	}
	rep, err := Run(context.Background(), []experiments.Runner{interrupted}, opts)
	if err != nil {
		t.Fatal(err)
	}
	fs := rep.Figures[0]
	if fs.Status != StatusTimedOut {
		t.Errorf("status = %v, want %v", fs.Status, StatusTimedOut)
	}
	if !strings.Contains(fs.Err, "4200/10000") {
		t.Errorf("report row %q lost the sweep progress", fs.Err)
	}
	out := reg.Render()
	for _, want := range []string{
		`sicfig_figure_seconds{figure="partial"}`,
		`sicfig_figure_attempts{figure="partial"} 1`,
		`sicfig_figures_total{status="timed-out"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("registry missing %q:\n%s", want, out)
		}
	}
}
