package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/atomicio"
	"repro/internal/experiments"
)

// The checkpoint directory layout:
//
//	<dir>/manifest.json   checksummed index: figure ID → params hash + payload checksum
//	<dir>/<figID>.json    checksummed figure payload (the full Result)
//
// Every file is a self-checksummed envelope written atomically, and the
// manifest additionally records each payload's checksum, so truncation,
// bit rot and stale payload files are all detected on load and answered by
// recomputing the figure rather than serving bad data. A figure is durable
// once its payload AND the manifest naming it are on disk; a crash between
// the two writes merely recomputes that figure on resume.

// checkpointVersion is baked into every params key so a format change
// invalidates old checkpoints wholesale.
const checkpointVersion = 1

// ErrNoCheckpoint reports that no completed checkpoint exists for a figure.
var ErrNoCheckpoint = errors.New("runner: no checkpoint")

// ErrParamsChanged reports that a checkpoint exists but was computed under
// different parameters, so serving it would silently return stale results.
var ErrParamsChanged = errors.New("runner: checkpoint params changed")

// ErrCorrupt reports a checkpoint or manifest that failed its checksum or
// could not be decoded.
var ErrCorrupt = errors.New("runner: corrupt checkpoint")

// Checkpoint is the persisted record of one completed figure.
type Checkpoint struct {
	Result experiments.Result `json:"result"`
	// SpreadUnavailable records that the seed-spread annotation failed for
	// this figure, so a resumed suite keeps reporting it.
	SpreadUnavailable bool `json:"spread_unavailable,omitempty"`
}

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

// envelope wraps every persisted file with a checksum over its payload.
type envelope struct {
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// writeEnvelope atomically writes payload in its checksummed envelope and
// returns the checksum. payload must be json.Marshal output: that is
// already compact and HTML-escaped, so splicing it in verbatim yields the
// bytes json.Marshal(envelope{...}) would, without scanning the payload a
// second time. Indenting instead would reformat the payload and break the
// checksum on read-back.
func writeEnvelope(path string, payload []byte) (string, error) {
	sum := digest(payload)
	blob := make([]byte, 0, len(payload)+len(sum)+len(`{"sha256":"","payload":}`)+1)
	blob = append(blob, `{"sha256":"`...)
	blob = append(blob, sum...)
	blob = append(blob, `","payload":`...)
	blob = append(blob, payload...)
	blob = append(blob, "}\n"...)
	if err := atomicio.WriteFile(path, blob, 0o644); err != nil {
		return "", err
	}
	return sum, nil
}

// readEnvelope loads and verifies a checksummed file. Truncated, garbled
// or tampered files come back as ErrCorrupt.
func readEnvelope(path string) (json.RawMessage, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	if digest(env.Payload) != env.SHA256 {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, path)
	}
	return env.Payload, nil
}

// manifestEntry indexes one completed figure.
type manifestEntry struct {
	ParamsHash string `json:"params_hash"`
	Checksum   string `json:"checksum"`
}

// Store is the on-disk checkpoint store for one suite run.
type Store struct {
	dir     string
	entries map[string]manifestEntry
}

// OpenStore opens (creating if needed) the checkpoint directory and loads
// its manifest. A missing or corrupt manifest is not an error — the store
// starts empty and every figure recomputes, which is always safe.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, entries: map[string]manifestEntry{}}
	if payload, err := readEnvelope(s.manifestPath()); err == nil {
		if err := json.Unmarshal(payload, &s.entries); err != nil {
			s.entries = map[string]manifestEntry{}
		}
	}
	return s, nil
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "manifest.json") }

func (s *Store) payloadPath(figID string) string {
	return filepath.Join(s.dir, figID+".json")
}

// Save persists a completed figure: payload file first, then the manifest
// entry pointing at it, each write atomic.
func (s *Store) Save(figID, paramsHash string, cp Checkpoint) error {
	payload, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("runner: encoding checkpoint %s: %w", figID, err)
	}
	sum, err := writeEnvelope(s.payloadPath(figID), payload)
	if err != nil {
		return fmt.Errorf("runner: writing checkpoint %s: %w", figID, err)
	}
	s.entries[figID] = manifestEntry{ParamsHash: paramsHash, Checksum: sum}
	manifest, err := json.Marshal(s.entries)
	if err != nil {
		return fmt.Errorf("runner: encoding manifest: %w", err)
	}
	if _, err := writeEnvelope(s.manifestPath(), manifest); err != nil {
		return fmt.Errorf("runner: writing manifest: %w", err)
	}
	return nil
}

// Load returns the checkpoint for figID if one exists, was computed under
// paramsHash, and passes both the manifest cross-check and its own
// checksum. Any other outcome is an error explaining why the figure will
// recompute.
func (s *Store) Load(figID, paramsHash string) (Checkpoint, error) {
	e, ok := s.entries[figID]
	if !ok {
		return Checkpoint{}, ErrNoCheckpoint
	}
	if e.ParamsHash != paramsHash {
		return Checkpoint{}, ErrParamsChanged
	}
	payload, err := readEnvelope(s.payloadPath(figID))
	if err != nil {
		return Checkpoint{}, err
	}
	if digest(payload) != e.Checksum {
		return Checkpoint{}, fmt.Errorf("%w: %s: payload does not match manifest", ErrCorrupt, s.payloadPath(figID))
	}
	var cp Checkpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		return Checkpoint{}, fmt.Errorf("%w: %s: %v", ErrCorrupt, s.payloadPath(figID), err)
	}
	return cp, nil
}
