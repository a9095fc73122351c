package batch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// checkpointFile is the on-disk JSON shape of a streaming checkpoint.
// Done maps the content-addressed cell key (store.CellSpec.Key) to the
// cell's metric vector — the same keys the shared result store uses,
// which is what makes the checkpoint a single-file view over the store
// rather than a parallel persistence scheme with its own addressing.
// Values are nanFloats so the engine's NaN missing-sample convention
// survives the JSON round trip.
type checkpointFile struct {
	Fingerprint string                `json:"fingerprint"`
	Columns     []string              `json:"columns"`
	Done        map[string][]nanFloat `json:"done"`
}

// checkpoint streams completed cells to disk so an interrupted run can
// resume without recomputing them. It is the run-scoped counterpart of
// store.Backend: same content-addressed keys, but bundled in one file
// whose fingerprint pins the exact (grid, seed, scope, columns)
// combination, and flushed in batches. put is called under the
// engine's result mutex, so no additional locking is needed.
type checkpoint struct {
	path    string
	file    checkpointFile
	pending int // completions since the last flush
}

// flushEvery bounds how many completions may accumulate before the
// checkpoint is rewritten; small enough that little work is lost on a
// crash, large enough that huge grids do not thrash the disk.
const flushEvery = 8

// loadOrCreateCheckpoint opens an existing checkpoint or starts a
// fresh one. An existing file recorded for a different (grid, seed,
// scope, columns) combination is rejected rather than silently mixed.
func loadOrCreateCheckpoint(path, fingerprint string, columns []string) (*checkpoint, error) {
	c := &checkpoint{
		path: path,
		file: checkpointFile{Fingerprint: fingerprint, Columns: columns, Done: map[string][]nanFloat{}},
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("batch: reading checkpoint: %w", err)
	}
	var existing checkpointFile
	if err := json.Unmarshal(data, &existing); err != nil {
		return nil, fmt.Errorf("batch: corrupt checkpoint %s: %w", path, err)
	}
	if existing.Fingerprint != fingerprint {
		return nil, fmt.Errorf("batch: checkpoint %s was written for a different grid/seed; delete it or point elsewhere", path)
	}
	if existing.Done != nil {
		c.file.Done = existing.Done
	}
	return c, nil
}

// get returns the restored metric vector of the cell with the given
// content-addressed key, if the checkpoint holds one.
func (c *checkpoint) get(key string) ([]float64, bool) {
	v, ok := c.file.Done[key]
	if !ok {
		return nil, false
	}
	vals := make([]float64, len(v))
	for i, f := range v {
		vals[i] = float64(f)
	}
	return vals, true
}

// put adds a completed cell under its content-addressed key and
// periodically flushes to disk.
func (c *checkpoint) put(key string, values []float64) error {
	vals := make([]nanFloat, len(values))
	for i, f := range values {
		vals[i] = nanFloat(f)
	}
	c.file.Done[key] = vals
	c.pending++
	if c.pending >= flushEvery {
		return c.flush()
	}
	return nil
}

// flush writes the checkpoint atomically (temp file + rename).
func (c *checkpoint) flush() error {
	if c.pending == 0 && len(c.file.Done) == 0 {
		return nil
	}
	c.pending = 0
	data, err := json.Marshal(c.file)
	if err != nil {
		return fmt.Errorf("batch: encoding checkpoint: %w", err)
	}
	tmp := c.path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(c.path), 0o755); err != nil {
		return fmt.Errorf("batch: checkpoint dir: %w", err)
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("batch: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return fmt.Errorf("batch: committing checkpoint: %w", err)
	}
	return nil
}
