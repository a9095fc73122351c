package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Journal is the coordinator's crash-durability log: an append-only
// file of lease-table transitions (run registration, lease grants,
// cell completions, run finishes) written beside the result store. On
// reboot the coordinator replays it and resumes every registered run
// exactly where it left off — completed cells are absorbed from the
// journal (and reconciled against the content-addressed store), and
// everything else reverts to pending.
//
// Durability is deliberately two-tiered, leaning on the determinism
// contract the whole fabric is built on:
//
//   - Registrations and finishes fsync immediately: losing a run
//     entirely (or resurrecting a finished one) would be visible to
//     clients, so those records must survive any crash that follows
//     the acknowledgement.
//   - Lease and completion records fsync in batches (SyncBatch
//     appends per fsync). A crash can lose the unsynced tail, but
//     never a result: the coordinator fills the shared store behind
//     each journaled completion, so a completion the journal forgot
//     is re-absorbed from the store on the next registration scan
//     when its fill landed, and recomputed to the same bytes when the
//     crash took the fill too — determinism makes either path
//     indistinguishable from the lost record.
//
// Lease records are replayed only as bookkeeping (a leased cell whose
// coordinator died reverts to pending; the old lease token is
// meaningless to the new table), so compaction drops them. The journal
// keeps its replay state in memory — appends update it in lockstep —
// which makes Compact a pure rewrite of the live state: register and
// done records for unfinished runs, nothing else.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	// batch is the fsync batch size for lease/done appends.
	batch    int
	unsynced int
	// records counts the lines currently in the file; compaction
	// triggers when it exceeds twice the live-state size.
	records int
	runs    map[string]*journalRun
	order   []string
}

// DefaultSyncBatch is the lease/done fsync batch size used when a
// journal is opened with zero: small enough that a crash loses at most
// a handful of completion records (each re-absorbed from the store),
// large enough that fsync never dominates small-cell grids.
const DefaultSyncBatch = 32

// journalRun is the in-memory replay state of one registered run.
type journalRun struct {
	spec   string
	seed   uint64
	cells  int
	done   map[int]JournalDone
	leased map[int]string
}

// JournalDone is one completed cell as recovered from the journal.
type JournalDone struct {
	Worker string
	Cached bool
	Values []float64
}

// RecoveredRun is the replayed state of one unfinished run, returned
// by Runs for the embedding server to re-register on reboot.
type RecoveredRun struct {
	// Run is the run ID the register record carried.
	Run string
	// Spec and Seed identify the grid exactly as submitted.
	Spec string
	Seed uint64
	// Cells is the grid's total cell count at registration.
	Cells int
	// Done maps cell index -> completion for every cell whose done
	// record survived. Cells absent here revert to pending (the store
	// reconciliation pass absorbs any whose object already exists).
	Done map[int]JournalDone
	// Leased counts cells that were out on lease when the journal
	// stopped — they revert to pending, so this is purely diagnostic.
	Leased int
}

// journalRecord is the wire shape of one journal line.
type journalRecord struct {
	T      string     `json:"t"`
	Run    string     `json:"run"`
	Spec   string     `json:"spec,omitempty"`
	Seed   uint64     `json:"seed,omitempty"`
	Cells  int        `json:"cells,omitempty"`
	Index  int        `json:"index,omitempty"`
	Worker string     `json:"worker,omitempty"`
	Cached bool       `json:"cached,omitempty"`
	Values []nanFloat `json:"values,omitempty"`
}

// OpenJournal opens (creating if needed) the journal at path, replays
// it into memory, and truncates any torn final record — a crash
// mid-append leaves an unterminated tail, which is dropped so future
// appends form well-formed lines. syncBatch is the lease/done fsync
// batch size; zero means DefaultSyncBatch.
func OpenJournal(path string, syncBatch int) (*Journal, error) {
	if syncBatch <= 0 {
		syncBatch = DefaultSyncBatch
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fabric: opening journal: %w", err)
	}
	j := &Journal{
		path:  path,
		f:     f,
		batch: syncBatch,
		runs:  map[string]*journalRun{},
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fabric: reading journal: %w", err)
	}
	good, records, runs, order := replayJournal(data)
	j.records = records
	j.runs = runs
	j.order = order
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
func replayJournal(data []byte) (good int64, records int, runs map[string]*journalRun, order []string) {
	runs = map[string]*journalRun{}
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
// bit-identical to what a reboot would rebuild.
func applyRecord(runs map[string]*journalRun, order []string, rec journalRecord) []string {
	switch rec.T {
	case "register":
		if _, ok := runs[rec.Run]; ok {
			return order // idempotent: duplicate registers are no-ops
		}
		runs[rec.Run] = &journalRun{
			spec:   rec.Spec,
			seed:   rec.Seed,
			cells:  rec.Cells,
			done:   map[int]JournalDone{},
			leased: map[int]string{},
		}
		return append(order, rec.Run)
	case "lease":
		if r := runs[rec.Run]; r != nil {
			if _, done := r.done[rec.Index]; !done {
				r.leased[rec.Index] = rec.Worker
			}
		}
	case "done":
		if r := runs[rec.Run]; r != nil {
			if _, ok := r.done[rec.Index]; !ok {
				r.done[rec.Index] = JournalDone{
					Worker: rec.Worker,
					Cached: rec.Cached,
					Values: decodeValues(rec.Values),
				}
			}
			delete(r.leased, rec.Index)
		}
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
	// Unknown record types are skipped: a newer binary's journal should
	// not brick an older one mid-rollback.
	return order
}

// Register durably records a run registration (fsynced before
// returning): a crash after the submission was acknowledged must not
// lose the run.
func (j *Journal) Register(run, spec string, seed uint64, cells int) error {
	return j.append(journalRecord{T: "register", Run: run, Spec: spec, Seed: seed, Cells: cells}, true)
}

// Finish durably records a run reaching a terminal state (done or
// deterministically failed); replay drops finished runs, and the
// append triggers compaction once dead records dominate the file.
// Shutdown is deliberately NOT a finish: a run interrupted by the
// coordinator dying stays registered so the next boot resumes it.
func (j *Journal) Finish(run string) error {
	return j.append(journalRecord{T: "finish", Run: run}, true)
}

// RecordLease implements TableRecorder: lease grants are journaled in
// the fsync batch. Errors are swallowed — the lease transition is
// reconstructible (an unjournaled lease replays as pending, which is
// also what a journaled one replays as).
func (j *Journal) RecordLease(run string, index int, worker string) {
	_ = j.append(journalRecord{T: "lease", Run: run, Index: index, Worker: worker}, false)
}

// RecordDone implements TableRecorder: accepted completions are
// journaled in the fsync batch. Errors are swallowed by design — the
// coordinator fills the shared store from the completion, so a lost
// done record is re-absorbed from the store at the next registration
// scan, or the cell is recomputed to the same bytes.
func (j *Journal) RecordDone(run string, index int, worker string, cached bool, values []float64) {
	_ = j.append(journalRecord{T: "done", Run: run, Index: index, Worker: worker, Cached: cached, Values: encodeValues(values)}, false)
}

// append writes one record (a single write syscall per line, so a
// crash tears at most the final record), applies it to the in-memory
// state, and fsyncs when forced or when the batch fills. A finish
// record additionally compacts once dead records outnumber live ones.
func (j *Journal) append(rec journalRecord, syncNow bool) error {
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
	j.unsynced++
	if syncNow || j.unsynced >= j.batch {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("fabric: journal: %w", err)
		}
		j.unsynced = 0
	}
	if rec.T == "finish" && j.records > 2*j.liveRecordsLocked()+16 {
		return j.compactLocked()
	}
	return nil
}

// liveRecordsLocked is the size Compact would rewrite the file to.
func (j *Journal) liveRecordsLocked() int {
	n := 0
	for _, r := range j.runs {
		n += 1 + len(r.done)
	}
	return n
}

// Runs snapshots the unfinished runs in registration order, for the
// embedding server to re-register on reboot.
func (j *Journal) Runs() []RecoveredRun {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]RecoveredRun, 0, len(j.order))
	for _, id := range j.order {
		r := j.runs[id]
		rr := RecoveredRun{
			Run:    id,
			Spec:   r.spec,
			Seed:   r.seed,
			Cells:  r.cells,
			Done:   make(map[int]JournalDone, len(r.done)),
			Leased: len(r.leased),
		}
		for i, d := range r.done {
			v := make([]float64, len(d.Values))
			copy(v, d.Values)
			rr.Done[i] = JournalDone{Worker: d.Worker, Cached: d.Cached, Values: v}
		}
		out = append(out, rr)
	}
	return out
}

// Compact rewrites the journal to exactly the live state — one
// register record plus the done records of every unfinished run,
// lease records dropped (they replay as pending either way) — via a
// fsynced temp file and atomic rename, so a crash mid-compaction
// leaves either the old journal or the new one, never a mix.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("fabric: journal %s is closed", j.path)
	}
	return j.compactLocked()
}

func (j *Journal) compactLocked() error {
	tmp, err := os.CreateTemp(filepath.Dir(j.path), filepath.Base(j.path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("fabric: compacting journal: %w", err)
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}
	records := 0
	write := func(rec journalRecord) error {
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := tmp.Write(append(data, '\n')); err != nil {
			return err
		}
		records++
		return nil
	}
	for _, id := range j.order {
		r := j.runs[id]
		if err := write(journalRecord{T: "register", Run: id, Spec: r.spec, Seed: r.seed, Cells: r.cells}); err != nil {
			cleanup()
			return fmt.Errorf("fabric: compacting journal: %w", err)
		}
		idxs := make([]int, 0, len(r.done))
		for i := range r.done {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			d := r.done[i]
			if err := write(journalRecord{T: "done", Run: id, Index: i, Worker: d.Worker, Cached: d.Cached, Values: encodeValues(d.Values)}); err != nil {
				cleanup()
				return fmt.Errorf("fabric: compacting journal: %w", err)
			}
		}
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("fabric: compacting journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fabric: compacting journal: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fabric: compacting journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fabric: compacting journal: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("fabric: reopening compacted journal: %w", err)
	}
	j.f.Close()
	j.f = f
	j.records = records
	j.unsynced = 0
	return nil
}

// Sync flushes any batched appends to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil || j.unsynced == 0 {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("fabric: journal: %w", err)
	}
	j.unsynced = 0
	return nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

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
