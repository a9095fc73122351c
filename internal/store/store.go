// Package store is the content-addressed result cache of the sweep
// pipeline: it maps the canonical, versioned identity of one simulated
// grid cell — its parameters, its derived random seed, and the metric
// columns it was measured under — to the cell's metric vector.
//
// Determinism makes the cache sound: a cell's result is a pure function
// of its CellSpec, so a stored value can be served forever without
// recomputation, to any client that asks for the same cell — the batch
// engine (internal/batch), the sweep CLI (cmd/sweep -cache), and the
// HTTP service (cmd/segd) all share one store. The key schema is
// versioned by SpecVersion and pinned by a golden test: accidentally
// changing the canonical encoding would silently orphan every cached
// result, so any intentional change must bump the version.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SpecVersion tags the canonical cell-key encoding. Bump it whenever
// the encoding, the seed-derivation scheme, or the semantics of a
// stored metric vector change: a bump orphans every cached result on
// purpose, instead of serving stale values under a reused key.
//
// v2 folds the topology scenario (boundary, rho, taudist) into the
// canonical form, so an open-boundary, vacancy, or heterogeneous-tau
// cell can never alias the torus/full-occupancy/global-tau cell with
// the same classic parameters.
const SpecVersion = "v2"

// CellSpec is the complete identity of one cached cell result. Two
// cells with equal CellSpecs compute byte-identical metric vectors, no
// matter which grid, process, or machine runs them.
//
// Scope and Columns belong to the identity because the metric vector's
// meaning depends on which runner measured it: the same parameter
// point measured by two experiments must never share a cache slot.
// Seed is the cell's fully derived random seed (root seed, scope, and
// cell parameters already folded in — see internal/batch.CellSeed), so
// replicates and root seeds are distinguished through it.
type CellSpec struct {
	Scope     string
	Columns   []string
	Dynamic   string
	N, W      int
	Tau, P    float64
	ExtraName string
	Extra     float64
	Rep       int
	Seed      uint64
	// Scenario identity: the lattice boundary condition ("" and
	// "torus" are synonymous), the vacancy fraction, and the canonical
	// per-site intolerance distribution spec ("" and "global" are
	// synonymous). Zero values render as the canonical defaults, so
	// pre-scenario call sites produce well-formed v2 keys.
	Boundary string
	Rho      float64
	TauDist  string
}

// Canonical renders the spec in the versioned canonical form that is
// hashed into the store key. Floats use Go's shortest exact 'g'
// formatting, so equal float64 values always render identically.
func (s CellSpec) Canonical() string {
	boundary := s.Boundary
	if boundary == "" {
		boundary = "torus"
	}
	taudist := s.TauDist
	if taudist == "" {
		taudist = "global"
	}
	var b strings.Builder
	b.WriteString("gridseg/cell/")
	b.WriteString(SpecVersion)
	fmt.Fprintf(&b, "|scope=%s|cols=%s|dyn=%s|n=%d|w=%d|tau=%s|p=%s|b=%s|rho=%s|taudist=%s|xname=%s|x=%s|rep=%d|seed=%d",
		s.Scope, strings.Join(s.Columns, ","), s.Dynamic, s.N, s.W,
		g(s.Tau), g(s.P), boundary, g(s.Rho), taudist,
		s.ExtraName, g(s.Extra), s.Rep, s.Seed)
	return b.String()
}

// Key returns the content address of the spec: the hex SHA-256 of its
// canonical form.
func (s CellSpec) Key() string {
	h := sha256.Sum256([]byte(s.Canonical()))
	return hex.EncodeToString(h[:])
}

// g renders a float at full precision (shortest exact form).
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Backend is the key-value contract shared by every cache backend:
// in-process (Memory), file-backed (Dir), and remote (Remote).
// Implementations must be safe for concurrent use: the batch engine
// probes and fills the store from its worker goroutines, and in
// cluster mode many worker processes share one backend.
//
// Because keys are content addresses of deterministic computations,
// every backend inherits last-write-equivalence for free: two writers
// racing on one key are writing identical bytes, so Put order never
// matters and overwriting is idempotent.
type Backend interface {
	// Get returns the metric vector stored under key, reporting whether
	// it exists. A missing key is not an error.
	Get(key string) ([]float64, bool, error)
	// Put stores the metric vector under key. Overwriting an existing
	// key with the same values is legal and idempotent.
	Put(key string, values []float64) error
}

// Memory is an in-process Backend, useful for tests and for servers that
// do not need persistence.
type Memory struct {
	mu sync.Mutex
	m  map[string][]float64
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{m: map[string][]float64{}} }

// Get implements Backend.
func (s *Memory) Get(key string) (values []float64, ok bool, err error) {
	defer observeGet(time.Now(), &ok, &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	v, found := s.m[key]
	if !found {
		return nil, false, nil
	}
	out := make([]float64, len(v))
	copy(out, v)
	return out, true, nil
}

// Put implements Backend.
func (s *Memory) Put(key string, values []float64) (err error) {
	defer observePut(time.Now(), &err)
	v := make([]float64, len(values))
	copy(v, values)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = v
	return nil
}

// Len returns the number of cached cells.
func (s *Memory) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Dir is a file-backed Backend rooted at a directory. Each cell lives in
// its own small JSON object file under objects/<key[:2]>/<key[2:]>,
// written atomically (unique temp file + rename), so concurrent
// writers — even across processes sharing the store, like cmd/segd and
// cmd/sweep -cache — never expose a torn object. The object files need
// no locking: they are immutable once renamed into place, and when two
// writers race on one key the loser's rename just reinstalls the same
// deterministic bytes. The mutex only guards the cached object count
// maintained for Len.
type Dir struct {
	root string

	mu      sync.Mutex
	counted bool // count is valid (Len has scanned once)
	count   int
}

// staleTmpAge is how old a *.tmp staging file must be before Open
// treats it as crash residue. A live writer holds its staging file for
// the milliseconds between CreateTemp and rename, so anything an hour
// old was abandoned by a killed process; the margin keeps a concurrent
// opener (the store directory is shared across processes) from
// sweeping a staging file out from under a live writer.
const staleTmpAge = time.Hour

// Open opens (creating if needed) a file-backed store rooted at dir.
// Stale *.tmp staging files — the residue of a writer killed between
// CreateTemp and rename — are swept on open: they were never visible
// to readers (Get and Len ignore them), so removing them is always
// safe, and leaving them would slowly leak disk across crash/restart
// cycles.
func Open(dir string) (*Dir, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := sweepTmp(filepath.Join(dir, "objects"), time.Now().Add(-staleTmpAge)); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Dir{root: dir}, nil
}

// sweepTmp removes staging files last modified before cutoff under the
// objects tree. Removal races with another sweeping process are
// tolerated, but any other failure surfaces: a store that cannot clean
// itself probably cannot write.
func sweepTmp(objects string, cutoff time.Time) error {
	return filepath.WalkDir(objects, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if e.IsDir() || !strings.HasSuffix(path, ".tmp") {
			return nil
		}
		info, err := e.Info()
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if !info.ModTime().Before(cutoff) {
			return nil
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
		return nil
	})
}

// Root returns the directory the store is rooted at.
func (d *Dir) Root() string { return d.root }

// object is the on-disk JSON shape of one cached cell. Values encode
// NaN (the engine's missing-sample marker, which encoding/json
// rejects) as null.
type object struct {
	Key    string     `json:"key"`
	Values []nanFloat `json:"values"`
}

// nanFloat maps NaN <-> null across the JSON boundary.
type nanFloat float64

// MarshalJSON encodes NaN as null.
func (f nanFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return []byte(strconv.FormatFloat(float64(f), 'g', -1, 64)), nil
}

// UnmarshalJSON decodes null as NaN.
func (f *nanFloat) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = nanFloat(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return err
	}
	*f = nanFloat(v)
	return nil
}

// path maps a key to its object file. Keys are hex SHA-256 (64 chars);
// anything else would escape the objects tree, so it is rejected by
// the callers via validKey.
func (d *Dir) path(key string) string {
	return filepath.Join(d.root, "objects", key[:2], key[2:])
}

// validKey accepts exactly the lowercase-hex SHA-256 keys produced by
// CellSpec.Key, keeping hostile keys out of the filesystem layout.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get implements Backend.
func (d *Dir) Get(key string) (values []float64, ok bool, err error) {
	defer observeGet(time.Now(), &ok, &err)
	if !validKey(key) {
		return nil, false, fmt.Errorf("store: malformed key %q", key)
	}
	data, err := os.ReadFile(d.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	var obj object
	if err := json.Unmarshal(data, &obj); err != nil {
		return nil, false, fmt.Errorf("store: corrupt object %s: %w", key, err)
	}
	if obj.Key != key {
		return nil, false, fmt.Errorf("store: object %s holds key %s", key, obj.Key)
	}
	out := make([]float64, len(obj.Values))
	for i, v := range obj.Values {
		out[i] = float64(v)
	}
	return out, true, nil
}

// Put implements Backend.
func (d *Dir) Put(key string, values []float64) (err error) {
	defer observePut(time.Now(), &err)
	if !validKey(key) {
		return fmt.Errorf("store: malformed key %q", key)
	}
	obj := object{Key: key, Values: make([]nanFloat, len(values))}
	for i, v := range values {
		obj.Values[i] = nanFloat(v)
	}
	data, err := json.Marshal(obj)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	path := d.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// A unique temp name per writer: racing processes each stage their
	// own file and the renames are atomic, so readers only ever see a
	// complete object.
	tmp, err := os.CreateTemp(filepath.Dir(path), key[2:]+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	// CreateTemp files are 0600; objects are world-readable like any
	// other artifact of the repository's tools.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	// The stat+rename pair runs under the counter mutex so the cached
	// Len stays exact within this handle: without it, two goroutines
	// racing on a fresh key could both observe "new" and double-count.
	d.mu.Lock()
	_, statErr := os.Stat(path)
	if err := os.Rename(tmp.Name(), path); err != nil {
		d.mu.Unlock()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if d.counted && os.IsNotExist(statErr) {
		d.count++
	}
	d.mu.Unlock()
	return nil
}

// Len returns the number of cached cells. The first call walks the
// objects tree once; after that the count is served from memory and
// maintained by Put, so pollers (status endpoints, progress loops) pay
// O(1) instead of O(cells) per call. The count covers objects present
// at the first scan plus this handle's own writes: another process
// writing the same directory is only picked up by reopening the store
// (see TestDirLenReopen).
func (d *Dir) Len() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.counted {
		return d.count, nil
	}
	n := 0
	err := filepath.WalkDir(filepath.Join(d.root, "objects"), func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() && !strings.HasSuffix(path, ".tmp") {
			n++
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	d.counted = true
	d.count = n
	return n, nil
}
