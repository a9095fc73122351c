package fabric

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func openTestJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// journalLines returns the journal file's lines.
func journalLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// TestJournalColdStart covers the empty-journal boot: a fresh (or
// absent) file replays to zero runs and accepts appends.
func TestJournalColdStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.journal")
	j := openTestJournal(t, path)
	if runs := j.Runs(); len(runs) != 0 {
		t.Fatalf("cold journal recovered %d runs, want 0", len(runs))
	}
	if err := j.Register("r1", "n=8 w=1 tau=0.4 reps=1", 7, 1); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if runs := j.Runs(); len(runs) != 1 || runs[0].Run != "r1" {
		t.Fatalf("Runs after register = %+v", runs)
	}
}

// TestJournalRoundTrip checks a reopened journal rebuilds exactly the
// registered runs, in registration order, with their identities.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.journal")
	j := openTestJournal(t, path)
	want := []RecoveredRun{
		{Run: "run-a", Spec: "spec-a", Seed: 42, Cells: 4},
		{Run: "run-b", Spec: "spec-b", Seed: 0, Cells: 300},
	}
	for _, r := range want {
		if err := j.Register(r.Run, r.Spec, r.Seed, r.Cells); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := openTestJournal(t, path).Runs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
}

// TestJournalFinishRetiresRun checks a finished run does not resurrect
// on reboot while its unfinished sibling does.
func TestJournalFinishRetiresRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.journal")
	j := openTestJournal(t, path)
	for _, id := range []string{"keep", "retire"} {
		if err := j.Register(id, "spec", 1, 2); err != nil {
			t.Fatalf("Register(%s): %v", id, err)
		}
	}
	if err := j.Finish("retire"); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	j.Close()

	j2 := openTestJournal(t, path)
	runs := j2.Runs()
	if len(runs) != 1 || runs[0].Run != "keep" {
		t.Fatalf("recovered %+v, want only run %q", runs, "keep")
	}
}

// TestJournalTornFinalRecord simulates a crash mid-append: the final
// record has no terminating newline, so replay must drop exactly that
// record, the open must truncate it, and subsequent appends must form
// a journal that replays cleanly.
func TestJournalTornFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.journal")
	j := openTestJournal(t, path)
	if err := j.Register("r1", "spec", 1, 3); err != nil {
		t.Fatalf("Register: %v", err)
	}
	j.Close()

	// Tear the tail: a register record cut mid-value, no newline. Even
	// though the fragment is parseable JSON prefix-wise, it must not be
	// trusted.
	torn := `{"t":"register","run":"r2","spec":"spec","seed":2`
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.ReadFile(path)

	j2 := openTestJournal(t, path)
	if runs := j2.Runs(); len(runs) != 1 || runs[0].Run != "r1" {
		t.Fatalf("after torn tail recovered %+v, want only r1", runs)
	}
	after, _ := os.ReadFile(path)
	if len(after) != len(before)-len(torn) {
		t.Fatalf("torn tail not truncated: file %d bytes, want %d", len(after), len(before)-len(torn))
	}
	// The journal must keep working on the truncated file.
	if err := j2.Register("r3", "spec", 3, 1); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	runs := openTestJournal(t, path).Runs()
	if len(runs) != 2 || runs[0].Run != "r1" || runs[1].Run != "r3" {
		t.Fatalf("after post-truncation append recovered %+v, want r1 and r3", runs)
	}
}

// TestJournalReplayIdempotency replays the same bytes twice and
// requires identical state: record application must be a pure state
// transition with no hidden accumulation.
func TestJournalReplayIdempotency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.journal")
	j := openTestJournal(t, path)
	j.Register("a", "spec-a", 1, 3)
	j.Register("b", "spec-b", 2, 2)
	// A re-register must fold away: the first registration wins.
	j.Register("a", "spec-other", 9, 9)
	j.Finish("b")
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	good1, n1, runs1, order1 := replayJournal(data)
	good2, n2, runs2, order2 := replayJournal(data)
	if good1 != good2 || n1 != n2 || !reflect.DeepEqual(order1, order2) || !reflect.DeepEqual(runs1, runs2) {
		t.Fatalf("replay not idempotent: (%d,%d,%v) vs (%d,%d,%v)", good1, n1, order1, good2, n2, order2)
	}
	if a := runs1["a"]; a.Spec != "spec-a" || a.Seed != 1 || a.Cells != 3 {
		t.Fatalf("replayed run a = %+v; the first registration must win", a)
	}
	if _, ok := runs1["b"]; ok {
		t.Fatal("finished run b survived replay")
	}
}

// TestJournalMalformedInteriorLine checks the replay stops trusting
// the file at the first corrupt interior line instead of skipping it
// and replaying records whose context is gone.
func TestJournalMalformedInteriorLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.journal")
	lines := []string{
		`{"t":"register","run":"a","spec":"s","seed":1,"cells":2}`,
		`not json at all`,
		`{"t":"register","run":"b","spec":"s","seed":2,"cells":2}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := openTestJournal(t, path)
	if runs := j.Runs(); len(runs) != 1 || runs[0].Run != "a" {
		t.Fatalf("recovered %+v, want only run a (replay stops at corruption)", runs)
	}
}

// TestJournalReplaysOldFormat reads a journal written when the journal
// also carried per-cell "lease" and "done" records, ending in a torn
// done record: it replays to the same unfinished runs as its register
// and finish lines alone, and a compaction leaves one register line
// per unfinished run.
func TestJournalReplaysOldFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.journal")
	old := strings.Join([]string{
		`{"t":"register","run":"a","spec":"spec-a","seed":1,"cells":3}`,
		`{"t":"lease","run":"a","index":0,"worker":"w1"}`,
		`{"t":"done","run":"a","index":0,"worker":"w1","values":[1.5,null]}`,
		`{"t":"register","run":"b","spec":"spec-b","seed":2,"cells":2}`,
		`{"t":"lease","run":"b","index":1,"worker":"w2"}`,
		`{"t":"done","run":"b","index":1,"worker":"w2","cached":true,"values":[3]}`,
		`{"t":"register","run":"c","spec":"spec-c","seed":3,"cells":1}`,
		`{"t":"done","run":"c","index":0,"worker":"w1","values":[4]}`,
		`{"t":"finish","run":"c"}`,
		`{"t":"lease","run":"a","index":1,"worker":"w2"}`,
		`{"t":"done","run":"a","index":1,"worker":"w2","values":[2`,
	}, "\n")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	want := []RecoveredRun{
		{Run: "a", Spec: "spec-a", Seed: 1, Cells: 3},
		{Run: "b", Spec: "spec-b", Seed: 2, Cells: 2},
	}
	j := openTestJournal(t, path)
	if got := j.Runs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("old-format journal recovered %+v, want %+v", got, want)
	}
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	lines := journalLines(t, path)
	if len(lines) != len(want) {
		t.Fatalf("compacted journal holds %d lines, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"t":"register",`) {
			t.Fatalf("compacted journal kept a non-register line: %s", l)
		}
	}
	j.Close()
	if got := openTestJournal(t, path).Runs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted journal recovered %+v, want %+v", got, want)
	}
}

// TestJournalCompaction exercises compaction racing live appends:
// goroutines register and finish runs while Compact rewrites the file,
// and the reopened journal must hold exactly the unfinished runs
// regardless of which side of the rewrite each append landed on.
func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.journal")
	j := openTestJournal(t, path)
	const runs = 64

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * (runs / 4); i < (g+1)*(runs/4); i++ {
				id := fmt.Sprintf("run-%02d", i)
				j.Register(id, "spec", uint64(i), 1)
				if i%2 == 1 {
					j.Finish(id)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := j.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := j.Compact(); err != nil {
		t.Fatalf("final Compact: %v", err)
	}
	j.Close()

	got := map[string]uint64{}
	for _, r := range openTestJournal(t, path).Runs() {
		got[r.Run] = r.Seed
	}
	if len(got) != runs/2 {
		t.Fatalf("after compaction recovered %d runs, want %d", len(got), runs/2)
	}
	for i := 0; i < runs; i += 2 {
		if seed, ok := got[fmt.Sprintf("run-%02d", i)]; !ok || seed != uint64(i) {
			t.Fatalf("run-%02d recovered as seed %d, ok=%v", i, seed, ok)
		}
	}
}

// TestJournalAutoCompaction checks the finish-triggered compaction:
// churning many short runs through the journal must keep the file
// bounded by the live state, not the full history.
func TestJournalAutoCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.journal")
	j := openTestJournal(t, path)
	if err := j.Register("keeper", "spec", 1, 1); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 50; n++ {
		id := fmt.Sprintf("churn-%d", n)
		if err := j.Register(id, "spec", 1, 4); err != nil {
			t.Fatal(err)
		}
		if err := j.Finish(id); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// 50 churned runs wrote 100 records; the live state is 1.
	// Compaction must have kept the file within the 2*live+16 trigger's
	// reach.
	if lines := journalLines(t, path); len(lines) > 2*1+16 {
		t.Fatalf("journal holds %d records after churn; auto-compaction failed", len(lines))
	}
	j2 := openTestJournal(t, path)
	if runs := j2.Runs(); len(runs) != 1 || runs[0].Run != "keeper" {
		t.Fatalf("after churn recovered %+v, want only keeper", runs)
	}
}
