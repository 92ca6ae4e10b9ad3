package cluster

// FuzzJournalReplay feeds arbitrary bytes to the store as a journal
// file. The recovery contract under any corruption: OpenStore never
// panics, and whenever it succeeds the store must still accept a new
// append and replay it on the next open — a damaged history may lose
// its own records to quarantine, but must never poison post-crash
// writes (this is what the torn-newline repair guarantees).

import (
	"errors"
	"os"
	"slices"
	"testing"
)

func FuzzJournalReplay(f *testing.F) {
	// Seeds mirror testdata/fuzz/FuzzJournalReplay: intact framed lines,
	// legacy bare JSON, a torn tail without newline, a bit-flipped frame,
	// and framing edge cases.
	f.Add([]byte(""))
	f.Add([]byte("0aee147e\t{\"op\":\"submit\",\"id\":\"fz-j-1\",\"kind\":\"design\",\"key\":\"K\",\"payload\":{\"g\":1}}\n" +
		"bc976c8d\t{\"op\":\"done\",\"id\":\"fz-j-1\",\"result\":{\"ok\":true}}\n"))
	f.Add([]byte("{\"op\":\"submit\",\"id\":\"legacy-1\",\"kind\":\"k\"}\n{\"op\":\"start\",\"id\":\"legacy-1\"}\n"))
	f.Add([]byte("0aee147e\t{\"op\":\"submit\",\"id\":\"fz-j-1\",\"kind\":\"design\",\"key\":\"K\",\"payload\":{\"g\":1}}\n" +
		"deadbeef\t{\"op\":\"sub")) // torn tail, no newline
	f.Add([]byte("1aee147e\t{\"op\":\"submit\",\"id\":\"fz-j-1\",\"kind\":\"design\",\"key\":\"K\",\"payload\":{\"g\":1}}\nx\n")) // flipped crc + junk
	f.Add([]byte("\n\n\t\n{not json\nzz\tzz\n"))

	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(JournalPath(dir), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, _, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			return // oversized lines etc. may refuse to open; only panics are bugs
		}
		if err := s.Append(Record{Op: OpSubmit, ID: "fz-j-999"}); err != nil {
			t.Fatalf("append onto recovered journal: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		re, rec, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer re.Close()
		if !slices.Contains(rec.IDs, "fz-j-999") {
			t.Fatal("record appended after recovery was lost on replay")
		}
		// The scan API must agree with OpenStore on the same bytes.
		if _, err := ScanJournal(JournalPath(dir), nil, nil); err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("ScanJournal after reopen: %v", err)
		}
	})
}
