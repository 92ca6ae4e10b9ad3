package cluster

// Crash/corruption hardening tests for the journal: CRC framing,
// legacy-line compatibility, mid-file corruption quarantine, torn-tail
// repair, and read-only poisoning on write failure. These pin down the
// durability contract the chaos harness (internal/chaos) exercises
// end-to-end.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// readJournalLines returns the journal's non-empty lines.
func readJournalLines(t *testing.T, dir string) [][]byte {
	t.Helper()
	blob, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, line := range bytes.Split(blob, []byte{'\n'}) {
		if len(line) > 0 {
			out = append(out, line)
		}
	}
	return out
}

// TestStoreCRCFraming: every appended line carries a verifiable CRC32C
// frame, and the decoder round-trips it as a non-legacy record.
func TestStoreCRCFraming(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	mustAppend(t, s, Record{Op: OpSubmit, ID: "a", Payload: json.RawMessage(`{"x":1}`)})
	mustAppend(t, s, Record{Op: OpDone, ID: "a", Result: json.RawMessage(`{"ok":true}`)})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := readJournalLines(t, dir)
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		if idx := bytes.IndexByte(line, journalFrameSep); idx != crcHexLen {
			t.Fatalf("line %d: frame separator at %d, want %d: %q", i, idx, crcHexLen, line)
		}
		rec, legacy, err := decodeJournalLine(line)
		if err != nil {
			t.Fatalf("line %d fails its own CRC: %v", i, err)
		}
		if legacy {
			t.Fatalf("line %d decoded as legacy; new appends must be framed", i)
		}
		if rec.ID != "a" {
			t.Fatalf("line %d decoded id %q", i, rec.ID)
		}
	}
}

// TestStoreLegacyJournalReplay: a pre-CRC journal of bare JSON lines
// replays cleanly, is counted as legacy, and new appends to the same
// file are framed.
func TestStoreLegacyJournalReplay(t *testing.T) {
	dir := t.TempDir()
	legacy := `{"op":"submit","id":"old-1","kind":"design","key":"K1","payload":{"g":"G-1"}}
{"op":"start","id":"old-1"}
{"op":"done","id":"old-1","result":{"ff":42}}
{"op":"submit","id":"old-2","kind":"design"}
`
	if err := os.WriteFile(JournalPath(dir), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec := openTestStoreRecovered(t, dir)
	st := s.Stats()
	if st.Journal.Records != 4 || st.Journal.Legacy != 4 || st.Journal.Corrupt != 0 {
		t.Fatalf("legacy journal stats = %+v, want 4 records all legacy", st.Journal)
	}
	done := rec.Done
	if len(done) != 1 || done[0].ID != "old-1" || string(done[0].Result) != `{"ff":42}` {
		t.Fatalf("Done = %+v, want old-1 with its journaled result", done)
	}
	if p := rec.Pending; len(p) != 1 || p[0].ID != "old-2" {
		t.Fatalf("Pending = %+v, want [old-2]", p)
	}
	// New appends onto the legacy file use the framed format.
	mustAppend(t, s, Record{Op: OpDone, ID: "old-2"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := readJournalLines(t, dir)
	last := lines[len(lines)-1]
	if _, legacyLine, err := decodeJournalLine(last); err != nil || legacyLine {
		t.Fatalf("append after legacy replay not CRC-framed: %q (err %v)", last, err)
	}
}

// TestStoreCorruptRecordQuarantined: a bit flip in a mid-file record is
// detected by the CRC, quarantined to the sidecar, counted — and the
// records around it survive. The damaged job falls back to its last
// intact state (pending), which is re-execution, not silent loss.
func TestStoreCorruptRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	mustAppend(t, s, Record{Op: OpSubmit, ID: "a", Key: "ka"})
	mustAppend(t, s, Record{Op: OpSubmit, ID: "b", Key: "kb"})
	mustAppend(t, s, Record{Op: OpDone, ID: "a", Result: json.RawMessage(`{"v":1}`)})
	mustAppend(t, s, Record{Op: OpDone, ID: "b", Result: json.RawMessage(`{"v":2}`)})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit in the third line (done a) — mid-file, so the
	// torn-tail exemption must not apply.
	blob, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(blob, []byte{'\n'})
	lines[2][crcHexLen+5] ^= 0x01
	if err := os.WriteFile(JournalPath(dir), bytes.Join(lines, []byte{'\n'}), 0o644); err != nil {
		t.Fatal(err)
	}

	re, rec := openTestStoreRecovered(t, dir)
	st := re.Stats()
	if st.Journal.Corrupt != 1 || st.Journal.TornTail {
		t.Fatalf("stats = %+v, want exactly 1 corrupt, no torn tail", st.Journal)
	}
	if st.Journal.Records != 3 {
		t.Fatalf("records = %d, want 3 intact survivors", st.Journal.Records)
	}
	qblob, err := os.ReadFile(QuarantineFile(dir))
	if err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
	if n := bytes.Count(qblob, []byte{'\n'}); n != 1 {
		t.Fatalf("quarantine holds %d lines, want 1", n)
	}
	// Job a lost its done record: it must surface as pending (replay will
	// re-run it), never vanish.
	if js, ok := findJob(rec.Pending, "a"); !ok || js.Terminal() {
		t.Fatalf("State(a) = %+v ok=%v, want intact and non-terminal", js, ok)
	}
	if js, ok := findJob(rec.Done, "b"); !ok || js.Status != OpDone {
		t.Fatalf("State(b) = %+v ok=%v, want done untouched", js, ok)
	}
}

// TestStoreTornTailRepair: a journal whose final line lacks its newline
// (torn mid-write) is newline-terminated on open, so the next append
// starts a fresh line instead of gluing onto the fragment — the good
// post-crash record must survive the next reopen.
func TestStoreTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	mustAppend(t, s, Record{Op: OpSubmit, ID: "a"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(JournalPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`0badc0de` + "\t" + `{"op":"submit","id":"to`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestStore(t, dir)
	if st := re.Stats(); !st.Journal.TornTail || st.Journal.Records != 1 {
		t.Fatalf("stats after torn tail = %+v, want TornTail with 1 record", st.Journal)
	}
	mustAppend(t, re, Record{Op: OpSubmit, ID: "b"})
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Third generation: the post-crash append must replay intact. The
	// once-torn fragment is now mid-file, so it graduates from "expected
	// crash artifact" to counted-and-quarantined corruption.
	re2, rec := openTestStoreRecovered(t, dir)
	if !slices.Contains(rec.IDs, "b") {
		t.Fatal("record appended after torn-tail repair was lost on replay")
	}
	st := re2.Stats()
	if st.Journal.Records != 2 || st.Journal.Corrupt != 1 || st.Journal.TornTail {
		t.Fatalf("stats = %+v, want 2 records + 1 quarantined ex-tail", st.Journal)
	}
}

// TestStoreWriteFaultPoisons: a failed append flips the store read-only
// permanently — the failed record is not applied, later appends and
// Compact refuse with ErrStoreReadOnly even after the fault clears, and
// a fresh open over the same dir starts writable again.
func TestStoreWriteFaultPoisons(t *testing.T) {
	dir := t.TempDir()
	var fail atomic.Bool
	s, _, err := OpenStore(dir, StoreOptions{WriteFault: func() error {
		if fail.Load() {
			return errors.New("injected disk fault")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	mustAppend(t, s, Record{Op: OpSubmit, ID: "a"})
	fail.Store(true)
	if err := s.Append(Record{Op: OpSubmit, ID: "b"}); !errors.Is(err, ErrStoreReadOnly) {
		t.Fatalf("faulted append err = %v, want ErrStoreReadOnly", err)
	}
	if slices.Contains(readJobs(t, dir).IDs, "b") || s.Len() != 1 {
		t.Fatal("failed record was counted; state claims durability the journal lacks")
	}
	if !s.ReadOnly() {
		t.Fatal("store not read-only after append failure")
	}
	st := s.Stats()
	if !st.ReadOnly || !strings.Contains(st.ReadOnlyCause, "injected disk fault") {
		t.Fatalf("Stats = %+v, want ReadOnly with the original cause", st)
	}

	// The poison is sticky: a recovered disk does not quietly resume.
	fail.Store(false)
	if err := s.Append(Record{Op: OpSubmit, ID: "c"}); !errors.Is(err, ErrStoreReadOnly) {
		t.Fatalf("append after fault cleared = %v, want sticky ErrStoreReadOnly", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrStoreReadOnly) {
		t.Fatalf("Compact on poisoned store = %v, want ErrStoreReadOnly", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process over the same dir sees only what was durable and is
	// writable again.
	re := openTestStore(t, dir)
	if re.ReadOnly() {
		t.Fatal("reopened store inherited the poison")
	}
	if re.Len() != 1 {
		t.Fatalf("Len = %d after reopen, want only the durable record", re.Len())
	}
	mustAppend(t, re, Record{Op: OpSubmit, ID: "d"})
}

// TestStoreIDsReturnsSubmitOrder: the recovered IDs — the restart
// id-space reservation input — list every journaled logical id in
// submit order, including terminal ones (their ids are burned too).
func TestStoreIDsReturnsSubmitOrder(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	mustAppend(t, s, Record{Op: OpSubmit, ID: "n0-j-1"})
	mustAppend(t, s, Record{Op: OpSubmit, ID: "n0-j-2"})
	mustAppend(t, s, Record{Op: OpDone, ID: "n0-j-1"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openTestStoreRecovered(t, dir)
	ids := rec.IDs
	if len(ids) != 2 || ids[0] != "n0-j-1" || ids[1] != "n0-j-2" {
		t.Fatalf("IDs = %v, want submit order including the done job", ids)
	}
}

// TestScanJournalMissingFile: scanning a path that does not exist is an
// empty journal, not an error — a fresh node's first boot.
func TestScanJournalMissingFile(t *testing.T) {
	stats, err := ScanJournal(filepath.Join(t.TempDir(), "absent.jsonl"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (JournalStats{}) {
		t.Fatalf("stats = %+v, want zero", stats)
	}
}
