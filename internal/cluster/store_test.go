package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, _ := openTestStoreRecovered(t, dir)
	return s
}

// openTestStoreRecovered opens the store under dir and also returns the
// jobs it recovered.
func openTestStoreRecovered(t *testing.T, dir string) (*Store, Recovered) {
	t.Helper()
	s, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, rec
}

// readJobs folds the journal under dir as it stands on disk.
func readJobs(t *testing.T, dir string) Recovered {
	t.Helper()
	rec, err := ReadJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// findJob looks a logical job up in one list of a fold.
func findJob(list []JobState, id string) (JobState, bool) {
	for _, j := range list {
		if j.ID == id {
			return j, true
		}
	}
	return JobState{}, false
}

func mustAppend(t *testing.T, s *Store, rec Record) {
	t.Helper()
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRoundtrip: journaled lifecycle records survive a close/reopen
// with the right pending/done split.
func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	mustAppend(t, s, Record{Op: OpSubmit, ID: "a", Key: "key-a", Payload: json.RawMessage(`{"x":1}`)})
	mustAppend(t, s, Record{Op: OpSubmit, ID: "b", Key: "key-b"})
	mustAppend(t, s, Record{Op: OpSubmit, ID: "c"})
	mustAppend(t, s, Record{Op: OpStart, ID: "a"})
	mustAppend(t, s, Record{Op: OpDone, ID: "a", Result: json.RawMessage(`{"ok":true}`)})
	mustAppend(t, s, Record{Op: OpStart, ID: "b"}) // interrupted: no terminal record
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, rec := openTestStoreRecovered(t, dir)
	if re.Len() != 3 {
		t.Fatalf("Len = %d, want 3", re.Len())
	}
	done := rec.Done
	if len(done) != 1 || done[0].ID != "a" || string(done[0].Result) != `{"ok":true}` {
		t.Fatalf("Done = %+v", done)
	}
	pending := rec.Pending
	if len(pending) != 2 || pending[0].ID != "b" || pending[1].ID != "c" {
		t.Fatalf("Pending = %+v, want [b c] in submit order", pending)
	}
	if !pending[0].Interrupted() {
		t.Error("b started but unterminated should replay as interrupted")
	}
	if pending[1].Interrupted() {
		t.Error("c never started; must not be interrupted")
	}
}

// TestStoreTornFinalLine: a crash mid-append leaves a torn last line; the
// reopen must ignore it and keep everything before it.
func TestStoreTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	mustAppend(t, s, Record{Op: OpSubmit, ID: "a"})
	mustAppend(t, s, Record{Op: OpDone, ID: "a"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"submit","id":"tor`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestStore(t, dir)
	if re.Len() != 1 {
		t.Fatalf("Len = %d after torn line, want 1", re.Len())
	}
	// The store stays appendable after recovering from the torn line.
	mustAppend(t, re, Record{Op: OpSubmit, ID: "b"})
	if p := readJobs(t, dir).Pending; len(p) != 1 {
		t.Fatalf("Pending = %+v", p)
	}
}

// TestStoreCompact: compaction snapshots done+pending, drops fail/cancel,
// and the journal keeps working (and replaying) afterwards.
func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	mustAppend(t, s, Record{Op: OpSubmit, ID: "done1", Key: "kd", Payload: json.RawMessage(`1`)})
	mustAppend(t, s, Record{Op: OpDone, ID: "done1", Result: json.RawMessage(`42`)})
	mustAppend(t, s, Record{Op: OpSubmit, ID: "failed"})
	mustAppend(t, s, Record{Op: OpFail, ID: "failed", Err: "boom"})
	mustAppend(t, s, Record{Op: OpSubmit, ID: "queued"})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after compact, want 2 (fail dropped)", s.Len())
	}
	// Post-compact appends land in the truncated journal.
	mustAppend(t, s, Record{Op: OpSubmit, ID: "late"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, rec := openTestStoreRecovered(t, dir)
	if re.Len() != 3 {
		t.Fatalf("Len = %d after reopen, want 3 (snapshot 2 + journal 1)", re.Len())
	}
	done := rec.Done
	if len(done) != 1 || done[0].ID != "done1" || string(done[0].Result) != `42` {
		t.Fatalf("Done after compact+reopen = %+v", done)
	}
	p := rec.Pending
	if len(p) != 2 || p[0].ID != "queued" || p[1].ID != "late" {
		t.Fatalf("Pending after compact+reopen = %+v", p)
	}
}

// TestStoreDuplicateSubmitKeepsFirst: replay folds duplicate submit
// lines onto the first occurrence (idempotent journal application).
func TestStoreDuplicateSubmitKeepsFirst(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	mustAppend(t, s, Record{Op: OpSubmit, ID: "a", Key: "k1"})
	mustAppend(t, s, Record{Op: OpSubmit, ID: "a", Key: "k2"})
	p := readJobs(t, dir).Pending
	if len(p) != 1 || p[0].Key != "k1" {
		t.Fatalf("Pending = %+v, want one job with key k1", p)
	}
}

// TestStoreRetainsNoJobs: the journal on disk is the only job table, so
// appending thousands of jobs with sizeable results must not grow the
// live heap — the store keeps a count, not the jobs.
func TestStoreRetainsNoJobs(t *testing.T) {
	const jobs = 4000
	s := openTestStore(t, t.TempDir())
	pad := strings.Repeat("r", 4<<10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("j-%d", i)
		mustAppend(t, s, Record{Op: OpSubmit, ID: id, Key: id, Payload: json.RawMessage(`{}`)})
		mustAppend(t, s, Record{Op: OpStart, ID: id})
		// A fresh result per job, as a worker's encoded design would be.
		result := json.RawMessage(fmt.Sprintf(`{"job":%d,"pad":%q}`, i, pad))
		mustAppend(t, s, Record{Op: OpDone, ID: id, Result: result})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 2<<20 {
		t.Errorf("live heap grew %d KiB over %d journaled jobs, want < 2048 KiB", grew>>10, jobs)
	}
	if s.Len() != jobs {
		t.Errorf("Len = %d, want %d", s.Len(), jobs)
	}
}

// TestStoreClosedRejectsAppend: appends after Close fail loudly instead
// of silently dropping durability.
func TestStoreClosedRejectsAppend(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Op: OpSubmit, ID: "x"}); err == nil {
		t.Fatal("Append on a closed store succeeded")
	}
}
