package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal is the coordinator's crash-durability log: an append-only
// file of run registrations and run finishes, written beside the
// result store. It is the set of unfinished runs. On reboot the
// coordinator replays it and re-registers every run still in it; the
// run then absorbs every cell already in the content-addressed store
// and leases only the rest. The store is the only per-cell state:
// a cell whose store fill a crash took is recomputed, to the same
// bytes.
//
// Both record kinds fsync before the append returns: losing a run
// (or resurrecting a finished one) would be visible to clients, so
// each record must survive any crash that follows the
// acknowledgement. Lines of other kinds — the per-cell "lease" and
// "done" records older journals carry — are skipped on replay and
// dropped by compaction. The journal keeps its replay state in memory,
// updated in lockstep with appends, which makes Compact a pure rewrite
// of the live state: one register record per unfinished run.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	// records counts the lines currently in the file; compaction
	// triggers when it exceeds twice the live-state size.
	records int
	runs    map[string]RecoveredRun
	order   []string
}

// DefaultSyncBatch is kept for callers of OpenJournal; it is ignored,
// because the journal fsyncs every record.
const DefaultSyncBatch = 32

// RecoveredRun is one unfinished run as replayed from the journal,
// returned by Runs for the embedding server to re-register on reboot.
type RecoveredRun struct {
	// Run is the run ID the register record carried.
	Run string
	// Spec and Seed identify the grid exactly as submitted.
	Spec string
	Seed uint64
	// Cells is the grid's total cell count at registration.
	Cells int
}

// journalRecord is the wire shape of one journal line.
type journalRecord struct {
	T     string `json:"t"`
	Run   string `json:"run"`
	Spec  string `json:"spec,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
	Cells int    `json:"cells,omitempty"`
}

// OpenJournal opens (creating if needed) the journal at path, replays
// it into memory, and truncates any torn final record — a crash
// mid-append leaves an unterminated tail, which is dropped so future
// appends form well-formed lines. syncBatch is ignored: every record
// is fsynced.
func OpenJournal(path string, syncBatch int) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fabric: opening journal: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fabric: reading journal: %w", err)
	}
	j := &Journal{path: path, f: f}
	var good int64
	good, j.records, j.runs, j.order = replayJournal(data)
	if good < int64(len(data)) {
		// Torn tail: drop it so the next append starts a clean line.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("fabric: truncating torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("fabric: %w", err)
	}
	return j, nil
}

// replayJournal applies every well-formed, newline-terminated record
// in data, stopping at the first torn or malformed line. It returns
// the byte offset of the clean prefix, the record count, and the
// replayed run state. Replaying the same bytes twice yields the same
// state — records are applied by pure state transitions.
func replayJournal(data []byte) (good int64, records int, runs map[string]RecoveredRun, order []string) {
	runs = map[string]RecoveredRun{}
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// Unterminated tail: a record truncated mid-write. Even if
			// the fragment happens to parse, it may be the prefix of a
			// longer value, so it is never trusted.
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.T == "" || rec.Run == "" {
			// A malformed interior line means the file is not an
			// append-only journal we wrote; stop trusting it here.
			break
		}
		order = applyRecord(runs, order, rec)
		records++
		good += int64(nl + 1)
	}
	return good, records, runs, order
}

// applyRecord is the single state-transition function shared by
// replay and the live append path, which keeps the in-memory state
// identical to what a reboot would rebuild.
func applyRecord(runs map[string]RecoveredRun, order []string, rec journalRecord) []string {
	switch rec.T {
	case "register":
		if _, ok := runs[rec.Run]; ok {
			return order // idempotent: duplicate registers are no-ops
		}
		runs[rec.Run] = RecoveredRun{Run: rec.Run, Spec: rec.Spec, Seed: rec.Seed, Cells: rec.Cells}
		return append(order, rec.Run)
	case "finish":
		if _, ok := runs[rec.Run]; ok {
			delete(runs, rec.Run)
			for i, id := range order {
				if id == rec.Run {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
		}
	}
	// Other record types are skipped: the per-cell records of older
	// journals, and whatever a newer binary writes, which should not
	// brick an older one mid-rollback.
	return order
}

// Register durably records a run registration (fsynced before
// returning): a crash after the submission was acknowledged must not
// lose the run.
func (j *Journal) Register(run, spec string, seed uint64, cells int) error {
	return j.append(journalRecord{T: "register", Run: run, Spec: spec, Seed: seed, Cells: cells})
}

// Finish durably records a run reaching a terminal state (done or
// deterministically failed); replay drops finished runs, and the
// append triggers compaction once dead records dominate the file.
// Shutdown is deliberately NOT a finish: a run interrupted by the
// coordinator dying stays registered so the next boot resumes it.
func (j *Journal) Finish(run string) error {
	return j.append(journalRecord{T: "finish", Run: run})
}

// append writes one record (a single write syscall per line, so a
// crash tears at most the final record), applies it to the in-memory
// state, and fsyncs. A finish record additionally compacts once dead
// records outnumber live ones.
func (j *Journal) append(rec journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("fabric: journal %s is closed", j.path)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fabric: journal: %w", err)
	}
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("fabric: journal: %w", err)
	}
	j.records++
	j.order = applyRecord(j.runs, j.order, rec)
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("fabric: journal: %w", err)
	}
	if rec.T == "finish" && j.records > 2*len(j.runs)+16 {
		return j.compactLocked()
	}
	return nil
}

// Runs snapshots the unfinished runs in registration order, for the
// embedding server to re-register on reboot.
func (j *Journal) Runs() []RecoveredRun {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]RecoveredRun, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, j.runs[id])
	}
	return out
}

// Compact rewrites the journal to exactly the live state — one
// register record per unfinished run — via a fsynced temp file and
// atomic rename, so a crash mid-compaction leaves either the old
// journal or the new one, never a mix.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("fabric: journal %s is closed", j.path)
	}
	return j.compactLocked()
}

func (j *Journal) compactLocked() error {
	var buf bytes.Buffer
	for _, id := range j.order {
		r := j.runs[id]
		data, err := json.Marshal(journalRecord{T: "register", Run: id, Spec: r.Spec, Seed: r.Seed, Cells: r.Cells})
		if err != nil {
			return fmt.Errorf("fabric: compacting journal: %w", err)
		}
		buf.Write(append(data, '\n'))
	}
	tmp, err := os.CreateTemp(filepath.Dir(j.path), filepath.Base(j.path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("fabric: compacting journal: %w", err)
	}
	_, err = tmp.Write(buf.Bytes())
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), j.path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fabric: compacting journal: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("fabric: reopening compacted journal: %w", err)
	}
	j.f.Close()
	j.f = f
	j.records = len(j.order)
	return nil
}

// Close syncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	if err != nil {
		return fmt.Errorf("fabric: closing journal: %w", err)
	}
	return nil
}
