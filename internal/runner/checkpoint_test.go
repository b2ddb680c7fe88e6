package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/experiments"
)

func logPath(outDir string) string { return filepath.Join(outDir, "checkpoints", "log") }

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenStore(dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// logRecords returns the intact records of outDir's checkpoint log.
func logRecords(t *testing.T, outDir string) [][]byte {
	t.Helper()
	blob, err := os.ReadFile(logPath(outDir))
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, torn := atomicio.ParseLogRecords(blob)
	if torn {
		t.Fatal("checkpoint log has a torn tail")
	}
	return payloads
}

// corrupt applies mutate to path's contents, which it must change.
func corrupt(t *testing.T, path string, mutate func([]byte) []byte) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := mutate(bytes.Clone(blob))
	if bytes.Equal(damaged, blob) {
		t.Fatalf("%s: the damage changed nothing", path)
	}
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
}

// outputFiles reads every file directly in dir; the checkpoints directory
// is not an output.
func outputFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(blob)
	}
	return files
}

// threeFigures is a suite of three fake figures, a, b and c, and their
// call counters.
func threeFigures() ([]experiments.Runner, *[3]atomic.Int32) {
	var calls [3]atomic.Int32
	return []experiments.Runner{fixed("a", &calls[0]), fixed("b", &calls[1]), fixed("c", &calls[2])}, &calls
}

func callCounts(calls *[3]atomic.Int32) string {
	return fmt.Sprint([]int32{calls[0].Load(), calls[1].Load(), calls[2].Load()})
}

// resumeAfter runs suite to completion in a fresh output directory, lets
// damage alter what that run left there, then resumes the suite. It
// returns the resumed run's options, statuses and log.
func resumeAfter(t *testing.T, suite []experiments.Runner, damage func(outDir string)) (Options, []Status, string) {
	t.Helper()
	opts := baseOpts(t)
	if _, err := Run(context.Background(), suite, opts); err != nil {
		t.Fatal(err)
	}
	damage(opts.OutDir)
	var log bytes.Buffer
	opts.Log = &log
	opts.Resume = true
	rep, err := Run(context.Background(), suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	return opts, statuses(rep), log.String()
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := ParamsKey("fig", testParams(), 1)
	want := experiments.Result{
		ID:      "fig",
		Title:   "TITLE-fig",
		Text:    "text",
		Files:   map[string]string{"fig.csv": "x\n1\n", "fig.svg": "<svg/>\n"},
		Metrics: map[string]float64{"m": 7},
	}
	s := openStore(t, dir)
	if _, _, err := s.Load("fig", key); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store Load err = %v, want ErrNoCheckpoint", err)
	}
	sums, err := writeResultFiles(Options{OutDir: dir, Log: io.Discard}, want)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("fig", key, want, true, sums); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh store re-reads the log from disk.
	s2 := openStore(t, dir)
	defer s2.Close()
	got, spreadUnavailable, err := s2.Load("fig", key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !spreadUnavailable {
		t.Errorf("round trip = %+v (spread unavailable %v), want %+v (true)", got, spreadUnavailable, want)
	}

	// A different params hash must refuse the stale checkpoint.
	other := ParamsKey("fig", func() experiments.Params { p := testParams(); p.Seed = 2; return p }(), 1)
	if _, _, err := s2.Load("fig", other); !errors.Is(err, ErrParamsChanged) {
		t.Errorf("changed-params Load err = %v, want ErrParamsChanged", err)
	}
	// Seed-spread width is part of the key as well: its metrics land in the
	// same checkpoint, so a different -seeds must recompute.
	spread := ParamsKey("fig", testParams(), 5)
	if _, _, err := s2.Load("fig", spread); !errors.Is(err, ErrParamsChanged) {
		t.Errorf("changed-seeds Load err = %v, want ErrParamsChanged", err)
	}
}

// A log cut short inside its last record: that figure recomputes, the
// records before it are served, and the recompute leaves the log whole.
func TestTruncatedCheckpointDetected(t *testing.T) {
	suite, calls := threeFigures()
	opts, got, log := resumeAfter(t, suite, func(outDir string) {
		corrupt(t, logPath(outDir), func(b []byte) []byte { return b[:len(b)-3] })
	})
	if want := []Status{StatusCached, StatusCached, StatusOK}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("statuses = %v, want %v", got, want)
	}
	if !strings.Contains(log, "torn tail") {
		t.Errorf("truncated tail not logged:\n%s", log)
	}
	rep, err := Run(context.Background(), suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := statuses(rep), []Status{StatusCached, StatusCached, StatusCached}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("second resume statuses = %v, want %v", got, want)
	}
	if got := callCounts(calls); got != "[1 1 2]" {
		t.Errorf("calls = %s, want [1 1 2]", got)
	}
}

// A flipped byte inside a record: the log's CRC stops replay there, so
// that figure and every later one recompute, and the earlier one is
// served. The flip keeps the JSON valid, so only the CRC can catch it.
func TestBitFlippedCheckpointDetected(t *testing.T) {
	suite, calls := threeFigures()
	_, got, _ := resumeAfter(t, suite, func(outDir string) {
		corrupt(t, logPath(outDir), func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"title":"fake b"`), []byte(`"title":"fake B"`), 1)
		})
	})
	if want := []Status{StatusCached, StatusOK, StatusOK}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("statuses = %v, want %v", got, want)
	}
	if got := callCounts(calls); got != "[1 2 2]" {
		t.Errorf("calls = %s, want [1 2 2]", got)
	}
}

// An output file restored from an older save is a well-formed file, but
// not the one the figure's record names: its digest mismatches and the
// figure recomputes.
func TestStaleOutputFileRecomputes(t *testing.T) {
	opts := baseOpts(t)
	var calls atomic.Int32
	suite := []experiments.Runner{fixed("a", &calls)}
	path := filepath.Join(opts.OutDir, "a.csv")
	if _, err := Run(context.Background(), suite, opts); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	opts.Params.Seed++
	if _, err := Run(context.Background(), suite, opts); err != nil {
		t.Fatal(err)
	}
	current, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	opts.Resume = true
	rep, err := Run(context.Background(), suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Figures[0].Status != StatusOK || calls.Load() != 3 {
		t.Errorf("got %s after %d calls, want ok after 3 (stale file recomputed)", rep.Figures[0].Status, calls.Load())
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, current) {
		t.Errorf("a.csv = %q (%v), want the current save's %q", got, err, current)
	}
}

// End to end: a record whose framing is intact but whose payload does not
// decode makes only its own figure recompute; the record after it still
// serves from cache.
func TestResumeRecomputesCorruptedFigureOnly(t *testing.T) {
	suite, calls := threeFigures()
	suite = suite[:2]
	_, got, _ := resumeAfter(t, suite, func(outDir string) {
		l, payloads, _, err := atomicio.OpenLog(logPath(outDir))
		if err != nil {
			t.Fatal(err)
		}
		if len(payloads) != 2 {
			t.Fatalf("%d records, want 2", len(payloads))
		}
		for _, err := range []error{l.Reset(), l.Append([]byte("not a record")), l.Append(payloads[1]), l.Close()} {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if want := []Status{StatusOK, StatusCached}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("statuses = %v, want %v", got, want)
	}
	if got := callCounts(calls); got != "[2 1 0]" {
		t.Errorf("calls = %s, want a recomputed and b cached: [2 1 0]", got)
	}
}

// A tampered or deleted output file recomputes its figure, and OutDir
// ends byte-identical to an uninterrupted run's.
func TestTamperedOrMissingOutputRecomputes(t *testing.T) {
	ref := baseOpts(t)
	refSuite, _ := threeFigures()
	if _, err := Run(context.Background(), refSuite, ref); err != nil {
		t.Fatal(err)
	}
	want := outputFiles(t, ref.OutDir)

	for name, damage := range map[string]func(path string) error{
		"tampered": func(path string) error {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				return err
			}
			_, err = f.WriteString("tampered\n")
			return errors.Join(err, f.Close())
		},
		"missing": os.Remove,
	} {
		t.Run(name, func(t *testing.T) {
			suite, calls := threeFigures()
			opts, got, _ := resumeAfter(t, suite, func(outDir string) {
				if err := damage(filepath.Join(outDir, "b.csv")); err != nil {
					t.Fatal(err)
				}
			})
			if want := []Status{StatusCached, StatusOK, StatusCached}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("statuses = %v, want %v", got, want)
			}
			if got := callCounts(calls); got != "[1 2 1]" {
				t.Errorf("calls = %s, want [1 2 1]", got)
			}
			if got := outputFiles(t, opts.OutDir); !reflect.DeepEqual(got, want) {
				t.Errorf("output files %q, want the uninterrupted run's %q", got, want)
			}
		})
	}
}

// Every run appends a record per computed figure. OpenStore keeps the
// last record of each figure and drops undecodable ones, so the log stays
// as large as the suite.
func TestOpenStoreCompactsToOneRecordPerFigure(t *testing.T) {
	opts := baseOpts(t)
	suite, calls := threeFigures()
	for i := 0; i < 4; i++ {
		opts.Params.Seed++
		if _, err := Run(context.Background(), suite, opts); err != nil {
			t.Fatal(err)
		}
	}
	l, _, _, err := atomicio.OpenLog(logPath(opts.OutDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(l.Append([]byte("not a record")), l.Close()); err != nil {
		t.Fatal(err)
	}
	if n := len(logRecords(t, opts.OutDir)); n <= len(suite)+1 {
		t.Fatalf("%d records before compaction, want superseded ones too", n)
	}
	if err := openStore(t, opts.OutDir).Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(logRecords(t, opts.OutDir)); n != len(suite) {
		t.Errorf("%d records after OpenStore, want one per figure (%d)", n, len(suite))
	}

	// The survivors are the last run's: resuming at its seed serves them all.
	opts.Resume = true
	rep, err := Run(context.Background(), suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := statuses(rep), []Status{StatusCached, StatusCached, StatusCached}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("statuses = %v, want %v", got, want)
	}
	if got := callCounts(calls); got != "[4 4 4]" {
		t.Errorf("calls = %s, want [4 4 4]", got)
	}
}

// A checkpoint directory of the version-1 format (one checksummed JSON
// envelope per figure plus manifest.json) holds no log: resuming
// recomputes every figure and leaves the old files alone.
func TestV1CheckpointFilesRecompute(t *testing.T) {
	opts := baseOpts(t)
	dir := filepath.Join(opts.OutDir, "checkpoints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	envelope := func(payload string) string {
		return fmt.Sprintf(`{"sha256":%q,"payload":%s}`+"\n", digest([]byte(payload)), payload)
	}
	payload := `{"result":{"ID":"a","Title":"fake a","Text":"text","Files":{"a.csv":"x,y\n1,1\n"},"Metrics":{"m":1}}}`
	v1 := map[string]string{
		"a.json":        envelope(payload),
		"manifest.json": envelope(fmt.Sprintf(`{"a":{"params_hash":%q,"checksum":%q}}`, digest([]byte("v1 key")), digest([]byte(payload)))),
	}
	for name, content := range v1 {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	suite, calls := threeFigures()
	opts.Resume = true
	rep, err := Run(context.Background(), suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := statuses(rep), []Status{StatusOK, StatusOK, StatusOK}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("statuses = %v, want %v", got, want)
	}
	for name, want := range v1 {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != want {
			t.Errorf("%s = %q (%v), want it untouched", name, got, err)
		}
	}
	rep, err = Run(context.Background(), suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := statuses(rep), []Status{StatusCached, StatusCached, StatusCached}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("second resume statuses = %v, want %v", got, want)
	}
	if got := callCounts(calls); got != "[1 1 1]" {
		t.Errorf("calls = %s, want [1 1 1]", got)
	}
}

// TestSuiteResumeServesEveryFigure runs every figure and ablation at test
// scale, then resumes: each figure is served from the log without calling
// its driver, OnResult sees the Result the driver returned, the metrics
// equal the first run's, and OutDir is byte-identical. Every record fits
// atomicio.MaxLogRecord.
func TestSuiteResumeServesEveryFigure(t *testing.T) {
	opts := baseOpts(t)
	suite := append(experiments.All(), experiments.Ablations()...)
	fresh := map[string]experiments.Result{}
	opts.OnResult = func(res experiments.Result, _ bool) { fresh[res.ID] = res }
	first, err := Run(context.Background(), suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Failed() != 0 {
		t.Fatalf("suite failed:\n%s", first.Render())
	}
	before := outputFiles(t, opts.OutDir)

	untouchable := make([]experiments.Runner, len(suite))
	for i, r := range suite {
		untouchable[i] = experiments.Runner{ID: r.ID, Title: r.Title,
			Run: func(context.Context, experiments.Params) (experiments.Result, error) {
				t.Errorf("%s: driver called on resume", r.ID)
				return experiments.Result{}, errors.New("driver called on resume")
			}}
	}
	opts.Resume = true
	opts.OnResult = func(res experiments.Result, cached bool) {
		if !cached || !reflect.DeepEqual(res, fresh[res.ID]) {
			t.Errorf("%s: resumed Result (cached %v) differs from the computed one", res.ID, cached)
		}
	}
	second, err := Run(context.Background(), untouchable, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range second.Figures {
		if f.Status != StatusCached {
			t.Errorf("%s: status %s, want skipped-cached", f.ID, f.Status)
		}
	}
	if !reflect.DeepEqual(first.Metrics, second.Metrics) {
		t.Error("resumed metrics differ from the first run's")
	}
	if after := outputFiles(t, opts.OutDir); !reflect.DeepEqual(after, before) {
		t.Error("output files changed across the resume")
	}

	records := logRecords(t, opts.OutDir)
	if len(records) != len(suite) {
		t.Errorf("%d records, want one per figure (%d)", len(records), len(suite))
	}
	largest := 0
	for _, p := range records {
		largest = max(largest, len(p))
	}
	if largest > atomicio.MaxLogRecord {
		t.Errorf("largest record %d bytes, above atomicio.MaxLogRecord (%d)", largest, atomicio.MaxLogRecord)
	}
	t.Logf("%d records, largest %d bytes", len(records), largest)
}
