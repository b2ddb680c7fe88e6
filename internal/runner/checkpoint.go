package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/atomicio"
	"repro/internal/experiments"
)

// The checkpoint store is one append-only log, <OutDir>/checkpoints/log:
// an atomicio.Log, whose records are length-prefixed and CRC-32 checked
// and whose torn tail is truncated on open. Each completed figure appends
// one record holding its params key, Title, Text and Metrics, and the
// SHA-256 of every output file. The files themselves live only in OutDir.
// Run writes them, each atomically, before it appends and syncs the
// record, so a record never names a file that was not on disk. A figure is
// served from the log only if its key matches and every listed file still
// has its recorded digest; a lost, torn or mismatched record only costs a
// recompute. For a figure with several records the last one wins.

// checkpointVersion is baked into every params key so a format change
// invalidates old checkpoints wholesale.
const checkpointVersion = 2

// ErrNoCheckpoint reports that no completed checkpoint exists for a figure.
var ErrNoCheckpoint = errors.New("runner: no checkpoint")

// ErrParamsChanged reports that a checkpoint exists but was computed under
// different parameters, so serving it would silently return stale results.
var ErrParamsChanged = errors.New("runner: checkpoint params changed")

// ErrCorrupt reports a checkpoint whose output files are missing from
// OutDir or no longer match their recorded digests.
var ErrCorrupt = errors.New("runner: corrupt checkpoint")

// ParamsKey fingerprints everything that determines a figure's output:
// the figure ID, the full parameter set, the seed-spread width and the
// checkpoint format version. Resuming under any change recomputes instead
// of serving a stale checkpoint.
func ParamsKey(figID string, p experiments.Params, seeds int) string {
	blob, err := json.Marshal(struct {
		Version int
		ID      string
		Seeds   int
		Params  experiments.Params
	}{checkpointVersion, figID, seeds, p})
	if err != nil {
		// Params is a flat struct of numbers; this cannot fail.
		panic(fmt.Sprintf("runner: marshalling params key: %v", err))
	}
	return digest(blob)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// record is one completed figure in the checkpoint log.
type record struct {
	ID                string             `json:"id"`
	Key               string             `json:"key"`
	Title             string             `json:"title"`
	Text              string             `json:"text"`
	Metrics           map[string]float64 `json:"metrics"`
	SpreadUnavailable bool               `json:"spread_unavailable,omitempty"`
	// Files maps each output file name to the SHA-256 of its bytes.
	Files map[string]string `json:"files"`
}

// Store is the checkpoint log of one output directory.
type Store struct {
	outDir string
	log    *atomicio.Log
	latest map[string]record
}

// OpenStore opens, creating it if needed, the checkpoint log of outDir and
// loads the last record of each figure. A torn tail is truncated and
// reported to logw, and a record whose JSON does not decode is skipped:
// either only makes the affected figures recompute. When the log holds
// superseded or undecodable records, OpenStore rewrites it with one record
// per figure, so it stays as small as the suite; a crash during the
// rewrite only costs recomputes.
func OpenStore(outDir string, logw io.Writer) (*Store, error) {
	dir := filepath.Join(outDir, "checkpoints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "log")
	l, payloads, torn, err := atomicio.OpenLog(path)
	if err != nil {
		return nil, err
	}
	if torn {
		fmt.Fprintf(logw, "runner: %s: truncated a torn tail; the figures it held recompute\n", path)
	}
	s := &Store{outDir: outDir, log: l, latest: map[string]record{}}
	last := map[string]int{}
	for i, p := range payloads {
		var rec record
		if json.Unmarshal(p, &rec) != nil {
			continue
		}
		s.latest[rec.ID] = rec
		last[rec.ID] = i
	}
	if len(last) == len(payloads) {
		return s, nil
	}
	keep := make([]int, 0, len(last))
	for _, i := range last {
		keep = append(keep, i)
	}
	sort.Ints(keep)
	err = l.Reset()
	for _, i := range keep {
		if err == nil {
			err = l.Append(payloads[i])
		}
	}
	if err == nil {
		err = l.Sync()
	}
	if err != nil {
		_ = l.Close() // the compaction error is the one to report
		return nil, fmt.Errorf("runner: compacting %s: %w", path, err)
	}
	return s, nil
}

// Save appends figID's record and syncs the log. sums holds the digest of
// each output file, as writeResultFiles returns them; the files must
// already be on disk.
func (s *Store) Save(figID, key string, res experiments.Result, spreadUnavailable bool, sums map[string]string) error {
	rec := record{
		ID: figID, Key: key, Title: res.Title, Text: res.Text, Metrics: res.Metrics,
		SpreadUnavailable: spreadUnavailable, Files: sums,
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runner: encoding checkpoint %s: %w", figID, err)
	}
	if err := s.log.Append(payload); err != nil {
		return fmt.Errorf("runner: checkpointing %s: %w", figID, err)
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("runner: checkpointing %s: %w", figID, err)
	}
	s.latest[figID] = rec
	return nil
}

// Load returns figID's checkpoint if it was computed under key and every
// output file it lists is in OutDir with its recorded digest. The Result's
// Files hold the bytes read back, so it equals the Result the driver
// returned. Any other outcome is an error saying why the figure will
// recompute.
func (s *Store) Load(figID, key string) (res experiments.Result, spreadUnavailable bool, err error) {
	rec, ok := s.latest[figID]
	if !ok {
		return res, false, ErrNoCheckpoint
	}
	if rec.Key != key {
		return res, false, ErrParamsChanged
	}
	files := make(map[string]string, len(rec.Files))
	for name, sum := range rec.Files {
		path := filepath.Join(s.outDir, name)
		blob, err := os.ReadFile(path)
		if err != nil {
			return res, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if digest(blob) != sum {
			return res, false, fmt.Errorf("%w: %s does not match its recorded digest", ErrCorrupt, path)
		}
		files[name] = string(blob)
	}
	res = experiments.Result{ID: rec.ID, Title: rec.Title, Text: rec.Text, Files: files, Metrics: rec.Metrics}
	return res, rec.SpreadUnavailable, nil
}

// Close syncs and closes the log.
func (s *Store) Close() error { return s.log.Close() }
