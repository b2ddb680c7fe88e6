package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
)

func sampleCheckpoint(id string) Checkpoint {
	return Checkpoint{Result: experiments.Result{
		ID:      id,
		Title:   "TITLE-" + id,
		Text:    "text",
		Files:   map[string]string{id + ".csv": "x\n1\n"},
		Metrics: map[string]float64{"m": 7},
	}}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ParamsKey("fig", testParams(), 1)
	if _, err := s.Load("fig", key); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store Load err = %v, want ErrNoCheckpoint", err)
	}
	if err := s.Save("fig", key, sampleCheckpoint("fig")); err != nil {
		t.Fatal(err)
	}

	// A fresh store re-reads the manifest from disk.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := s2.Load("fig", key)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Result.Title != "TITLE-fig" || cp.Result.Metrics["m"] != 7 {
		t.Errorf("round-tripped checkpoint mangled: %+v", cp.Result)
	}

	// A different params hash must refuse the stale checkpoint.
	other := ParamsKey("fig", func() experiments.Params { p := testParams(); p.Seed = 2; return p }(), 1)
	if _, err := s2.Load("fig", other); !errors.Is(err, ErrParamsChanged) {
		t.Errorf("changed-params Load err = %v, want ErrParamsChanged", err)
	}
	// Seed-spread width is part of the key as well: its metrics land in the
	// same checkpoint, so a different -seeds must recompute.
	spread := ParamsKey("fig", testParams(), 5)
	if _, err := s2.Load("fig", spread); !errors.Is(err, ErrParamsChanged) {
		t.Errorf("changed-seeds Load err = %v, want ErrParamsChanged", err)
	}
}

// corrupt applies mutate to path's contents.
func corrupt(t *testing.T, path string, mutate func([]byte) []byte) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(blob), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedCheckpointDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	key := ParamsKey("fig", testParams(), 1)
	if err := s.Save("fig", key, sampleCheckpoint("fig")); err != nil {
		t.Fatal(err)
	}
	corrupt(t, filepath.Join(dir, "fig.json"), func(b []byte) []byte { return b[:len(b)/2] })
	s2, _ := OpenStore(dir)
	if _, err := s2.Load("fig", key); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated Load err = %v, want ErrCorrupt", err)
	}
}

func TestBitFlippedCheckpointDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	key := ParamsKey("fig", testParams(), 1)
	if err := s.Save("fig", key, sampleCheckpoint("fig")); err != nil {
		t.Fatal(err)
	}
	// Flip payload bytes while keeping the JSON valid, so only the checksum
	// can catch it.
	corrupt(t, filepath.Join(dir, "fig.json"), func(b []byte) []byte {
		return bytes.Replace(b, []byte("TITLE-fig"), []byte("TITLE-fug"), 1)
	})
	s2, _ := OpenStore(dir)
	if _, err := s2.Load("fig", key); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit-flipped Load err = %v, want ErrCorrupt", err)
	}
}

func TestBitFlippedManifestStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	key := ParamsKey("fig", testParams(), 1)
	if err := s.Save("fig", key, sampleCheckpoint("fig")); err != nil {
		t.Fatal(err)
	}
	corrupt(t, filepath.Join(dir, "manifest.json"), func(b []byte) []byte {
		return bytes.Replace(b, []byte(`"params_hash`), []byte(`"params_hasX`), 1)
	})
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Load("fig", key); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("Load under corrupt manifest err = %v, want ErrNoCheckpoint (recompute everything)", err)
	}
}

func TestStalePayloadCrossCheckedAgainstManifest(t *testing.T) {
	// A payload file that is internally consistent but belongs to a
	// different save (e.g. restored from a backup) must fail the manifest
	// cross-check.
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	key := ParamsKey("a", testParams(), 1)
	if err := s.Save("a", key, sampleCheckpoint("a")); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(filepath.Join(dir, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("a", key, sampleCheckpoint("a2")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.json"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _ := OpenStore(dir)
	if _, err := s2.Load("a", key); !errors.Is(err, ErrCorrupt) {
		t.Errorf("stale payload Load err = %v, want ErrCorrupt", err)
	}
}

// End to end: a corrupted checkpoint makes only its own figure recompute;
// intact checkpoints still serve from cache.
func TestResumeRecomputesCorruptedFigureOnly(t *testing.T) {
	opts := baseOpts(t)
	var aCalls, bCalls atomic.Int32
	suite := []experiments.Runner{fixed("a", &aCalls), fixed("b", &bCalls)}
	if _, err := Run(context.Background(), suite, opts); err != nil {
		t.Fatal(err)
	}
	corrupt(t, filepath.Join(opts.CheckpointDir, "a.json"),
		func(b []byte) []byte { return b[:len(b)-10] })

	opts.Resume = true
	rep, err := Run(context.Background(), suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := statuses(rep); got[0] != StatusOK || got[1] != StatusCached {
		t.Fatalf("statuses = %v, want [ok skipped-cached]", got)
	}
	if aCalls.Load() != 2 || bCalls.Load() != 1 {
		t.Errorf("calls a=%d b=%d, want a recomputed (2) and b cached (1)",
			aCalls.Load(), bCalls.Load())
	}
}

// TestEnvelopeBytesMatchMarshal: writeEnvelope splices the payload into
// the envelope verbatim rather than marshalling it, which is sound only
// for payloads json.Marshal produced. Every real figure checkpoint (CSV
// and SVG text included) and the manifest must read back as exactly the
// bytes json.Marshal of the envelope would have written.
func TestEnvelopeBytesMatchMarshal(t *testing.T) {
	opts := baseOpts(t)
	suite := append(experiments.All(), experiments.Ablations()...)
	rep, err := Run(context.Background(), suite, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 0 {
		t.Fatalf("suite failed:\n%s", rep.Render())
	}
	files, err := os.ReadDir(opts.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(suite)+1 {
		t.Fatalf("%d checkpoint files, want one per figure plus the manifest (%d)", len(files), len(suite)+1)
	}
	for _, f := range files {
		got, err := os.ReadFile(filepath.Join(opts.CheckpointDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var env envelope
		if err := json.Unmarshal(got, &env); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		want, err := json.Marshal(envelope{SHA256: digest(env.Payload), Payload: env.Payload})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Errorf("%s: written envelope (%d bytes) departs from json.Marshal's (%d bytes) at byte %d",
				f.Name(), len(got), len(want), i)
		}
	}
}
