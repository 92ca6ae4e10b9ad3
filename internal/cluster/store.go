package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// Op is one journal record kind.
type Op string

// The journaled lifecycle. Submit and the terminal ops are what replay
// keys on; start records distinguish a job that was interrupted mid-run
// from one that never left the queue, and resume records tie a replayed
// execution back to its original logical id.
const (
	OpSubmit Op = "submit"
	OpStart  Op = "start"
	OpResume Op = "resume"
	OpDone   Op = "done"
	OpFail   Op = "fail"
	OpCancel Op = "cancel"
)

// Record is one line of the append-only journal. ID is the logical job
// id — stable across restarts even though the in-memory jobs.Manager
// assigns a fresh process-local id to a replayed run.
type Record struct {
	Op      Op              `json:"op"`
	ID      string          `json:"id"`
	Key     string          `json:"key,omitempty"`     // result-cache key (submit only)
	Payload json.RawMessage `json:"payload,omitempty"` // executor input (submit only)
	Result  json.RawMessage `json:"result,omitempty"`  // done only
	Err     string          `json:"err,omitempty"`     // fail only
	TS      time.Time       `json:"ts"`
}

// JobState is the replayed view of one logical job.
type JobState struct {
	ID      string
	Key     string
	Payload json.RawMessage
	Status  Op // OpSubmit (queued), OpStart (interrupted running), or terminal
	Result  json.RawMessage
	Err     string
}

// Terminal reports whether the replayed status is final.
func (s JobState) Terminal() bool {
	return s.Status == OpDone || s.Status == OpFail || s.Status == OpCancel
}

// Interrupted reports that the job was mid-run when the journal ends —
// the process died (or was killed) with the job executing.
func (s JobState) Interrupted() bool { return s.Status == OpStart }

// ErrStoreReadOnly marks a store poisoned by a failed append: the
// journal fd can no longer be trusted to hold what was acknowledged, so
// the store refuses further writes. Stats keeps working; /healthz
// surfaces the condition so the router pulls the node out of the write
// path.
var ErrStoreReadOnly = errors.New("cluster: store is read-only (append failed)")

// Store is the persistent job store: an append-only JSONL journal plus
// an optional snapshot, both under one data dir. Appends are serialized
// and flushed to the OS before Append returns, so a job acknowledged to
// a client survives a process crash; Sync additionally fsyncs each
// append for machine-crash durability at a large latency cost.
//
// Journal lines are CRC32C-framed ("%08x\t<json>\n"); unframed legacy
// lines (bare JSON objects) still replay. A corrupt mid-file record is
// quarantined to a sidecar and counted, never silently dropped; only a
// torn final line — the expected crash artifact — is ignored.
//
// The journal on disk is the only job table. OpenStore folds it once
// and hands the recovered jobs to its caller; after that the store
// keeps nothing per job, only a count of the jobs it holds.
type Store struct {
	dir        string
	sync       bool
	writeFault func() error

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	jobs     int // logical jobs journaled: recovered at open, +1 per submit
	jstats   JournalStats
	readOnly bool
	poison   error // first append failure, kept for /healthz and /stats
}

const (
	journalName    = "journal.jsonl"
	snapshotName   = "snapshot.json"
	quarantineName = "journal.quarantine.jsonl"

	crcHexLen       = 8
	journalFrameSep = '\t'
)

// crcTable is Castagnoli — hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// JournalPath returns the journal file under a store data dir — the
// chaos harness and offline tooling scan it post-mortem without opening
// a Store.
func JournalPath(dir string) string { return filepath.Join(dir, journalName) }

// QuarantineFile returns the corrupt-record sidecar under a store data
// dir.
func QuarantineFile(dir string) string { return filepath.Join(dir, quarantineName) }

// StoreOptions tunes OpenStore.
type StoreOptions struct {
	// Sync fsyncs the journal on every append. Default off: appends are
	// flushed to the OS (surviving process death) but not to the platter.
	Sync bool
	// WriteFault, when non-nil, runs before each journal write; a non-nil
	// return is treated as a disk failure. Chaos-test hook.
	WriteFault func() error
}

// Recovered is the job table folded from a data dir's snapshot and
// journal: the input of replay. The store keeps no reference to it.
type Recovered struct {
	// Pending is the replay work list in submit order: queued jobs plus
	// jobs that were running when the journal ends.
	Pending []JobState
	// Done is the completed jobs with their journaled results in submit
	// order — the cache-warming list for exactly-once visibility.
	Done []JobState
	// IDs is every logical job id in submit order, terminal ones
	// included: a restart reserves this id space so a fresh process never
	// mints an id the journal has seen.
	IDs []string
}

// OpenStore opens (creating if needed) the store under dir. It folds
// the snapshot and journal once — quarantining corrupt mid-file records
// and terminating a torn final line — and returns the recovered jobs
// next to a store ready for Append.
func OpenStore(dir string, opts StoreOptions) (*Store, Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovered{}, fmt.Errorf("cluster: store dir: %w", err)
	}
	var qf *os.File
	t, stats, err := foldDir(dir, func(line []byte) {
		// Quarantine the corrupt line for offline forensics. Best effort:
		// the count is authoritative even if the sidecar write fails.
		if qf == nil {
			var qerr error
			if qf, qerr = os.OpenFile(QuarantineFile(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); qerr != nil {
				return
			}
		}
		_, _ = qf.Write(append(append([]byte(nil), line...), '\n'))
	})
	if qf != nil {
		if cerr := qf.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("cluster: close quarantine: %w", cerr)
		}
	}
	if err != nil {
		return nil, Recovered{}, err
	}
	if err := repairTornNewline(JournalPath(dir)); err != nil {
		return nil, Recovered{}, err
	}
	f, err := os.OpenFile(JournalPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, Recovered{}, fmt.Errorf("cluster: open journal: %w", err)
	}
	s := &Store{
		dir:        dir,
		sync:       opts.Sync,
		writeFault: opts.WriteFault,
		f:          f,
		w:          bufio.NewWriter(f),
		jobs:       len(t.order),
		jstats:     stats,
	}
	return s, t.recovered(), nil
}

// ReadJobs folds the snapshot and journal under dir the way OpenStore
// does, but writes nothing: no quarantine sidecar, no torn-tail repair.
// It is safe on the dir of an open store; a record still being appended
// reads as a torn tail.
func ReadJobs(dir string) (Recovered, error) {
	t, _, err := foldDir(dir, nil)
	if err != nil {
		return Recovered{}, err
	}
	return t.recovered(), nil
}

// repairTornNewline terminates a journal whose final line was torn
// mid-write without its newline. Without the repair, the next append
// would be glued onto the torn fragment and one *good* record would be
// lost to the merge — a crash artifact must never corrupt post-crash
// writes.
func repairTornNewline(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: open journal for repair: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("cluster: stat journal: %w", err)
	}
	if info.Size() == 0 {
		return nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, info.Size()-1); err != nil {
		return fmt.Errorf("cluster: read journal tail: %w", err)
	}
	if last[0] == '\n' {
		return nil
	}
	if _, err := f.WriteAt([]byte{'\n'}, info.Size()); err != nil {
		return fmt.Errorf("cluster: terminate torn journal line: %w", err)
	}
	return nil
}

// jobTable folds journal records into each logical job's latest state.
type jobTable struct {
	state map[string]*JobState // logical id → latest state
	order []string             // submit order, for deterministic replay
}

// foldDir folds the snapshot and then the journal under dir, passing
// each corrupt mid-file journal line to onCorrupt (if non-nil).
func foldDir(dir string, onCorrupt func(line []byte)) (*jobTable, JournalStats, error) {
	t := &jobTable{state: make(map[string]*JobState)}
	blob, err := os.ReadFile(filepath.Join(dir, snapshotName))
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return nil, JournalStats{}, fmt.Errorf("cluster: read snapshot: %w", err)
	default:
		var snap struct {
			Jobs []*JobState `json:"jobs"`
		}
		if err := json.Unmarshal(blob, &snap); err != nil {
			return nil, JournalStats{}, fmt.Errorf("cluster: decode snapshot: %w", err)
		}
		for _, j := range snap.Jobs {
			t.state[j.ID] = j
			t.order = append(t.order, j.ID)
		}
	}
	stats, err := ScanJournal(JournalPath(dir), t.apply, onCorrupt)
	if err != nil {
		return nil, JournalStats{}, err
	}
	return t, stats, nil
}

// recovered splits the table into replay's inputs.
func (t *jobTable) recovered() Recovered {
	r := Recovered{IDs: t.order}
	for _, id := range t.order {
		switch j := t.state[id]; {
		case j.Status == OpDone:
			r.Done = append(r.Done, *j)
		case !j.Terminal():
			r.Pending = append(r.Pending, *j)
		}
	}
	return r
}

// JournalStats summarizes one journal scan: how many records replayed,
// how many were legacy (pre-CRC) frames, how many were corrupt and
// quarantined, and whether the final line was torn mid-write.
type JournalStats struct {
	Records  int  `json:"records"`
	Legacy   int  `json:"legacy"`
	Corrupt  int  `json:"corrupt"`
	TornTail bool `json:"tornTail"`
}

// ScanJournal streams the journal at path, calling onRecord for each
// intact record in order and onCorrupt (if non-nil) for each corrupt
// mid-file line. A corrupt *final* line is a torn tail — the expected
// artifact of a crash mid-append — and is counted but not passed to
// onCorrupt. A missing file scans as empty.
func ScanJournal(path string, onRecord func(Record), onCorrupt func(line []byte)) (JournalStats, error) {
	var stats JournalStats
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return stats, nil
	}
	if err != nil {
		return stats, fmt.Errorf("cluster: open journal: %w", err)
	}
	defer f.Close()

	handle := func(line []byte, last bool) {
		if len(line) == 0 {
			return
		}
		rec, legacy, err := decodeJournalLine(line)
		if err != nil {
			if last {
				stats.TornTail = true
				return
			}
			stats.Corrupt++
			if onCorrupt != nil {
				onCorrupt(line)
			}
			return
		}
		stats.Records++
		if legacy {
			stats.Legacy++
		}
		if onRecord != nil {
			onRecord(rec)
		}
	}

	// One-line lookahead: a line is only classified once we know whether
	// anything follows it, so "torn tail" applies strictly to the final
	// line and everything earlier is held to the full CRC check.
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var prev []byte
	havePrev := false
	for sc.Scan() {
		if havePrev {
			handle(prev, false)
		}
		prev = append(prev[:0], sc.Bytes()...)
		havePrev = true
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
		return stats, fmt.Errorf("cluster: scan journal: %w", err)
	}
	if havePrev {
		handle(prev, true)
	}
	return stats, nil
}

// frameRecord encodes one journal line: CRC32C of the JSON body in
// fixed-width hex, a tab, the body, a newline.
func frameRecord(blob []byte) []byte {
	frame := make([]byte, 0, crcHexLen+2+len(blob))
	frame = append(frame, fmt.Sprintf("%08x", crc32.Checksum(blob, crcTable))...)
	frame = append(frame, journalFrameSep)
	frame = append(frame, blob...)
	return append(frame, '\n')
}

// decodeJournalLine parses one journal line in either framing. Legacy
// lines (bare JSON, written before CRC framing) are accepted for
// backward compatibility; framed lines must pass the checksum.
func decodeJournalLine(line []byte) (rec Record, legacy bool, err error) {
	if line[0] == '{' {
		if err := json.Unmarshal(line, &rec); err != nil {
			return Record{}, true, fmt.Errorf("cluster: bad legacy record: %w", err)
		}
		return rec, true, nil
	}
	i := bytes.IndexByte(line, journalFrameSep)
	if i != crcHexLen {
		return Record{}, false, fmt.Errorf("cluster: bad journal frame (no crc prefix)")
	}
	want, err := strconv.ParseUint(string(line[:crcHexLen]), 16, 32)
	if err != nil {
		return Record{}, false, fmt.Errorf("cluster: bad journal crc: %w", err)
	}
	body := line[i+1:]
	if got := crc32.Checksum(body, crcTable); got != uint32(want) {
		return Record{}, false, fmt.Errorf("cluster: journal crc mismatch: have %08x want %08x", got, uint32(want))
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return Record{}, false, fmt.Errorf("cluster: bad journal record: %w", err)
	}
	return rec, false, nil
}

// apply folds one record into the table.
func (t *jobTable) apply(rec Record) {
	switch rec.Op {
	case OpSubmit:
		if _, ok := t.state[rec.ID]; ok {
			return // duplicate submit line; keep the first
		}
		t.state[rec.ID] = &JobState{
			ID: rec.ID, Key: rec.Key, Payload: rec.Payload, Status: OpSubmit,
		}
		t.order = append(t.order, rec.ID)
	case OpStart, OpResume:
		if j, ok := t.state[rec.ID]; ok && !j.Terminal() {
			if rec.Op == OpStart {
				j.Status = OpStart
			} else {
				j.Status = OpSubmit // re-queued by a replay; not yet running
			}
		}
	case OpDone, OpFail, OpCancel:
		if j, ok := t.state[rec.ID]; ok {
			j.Status = rec.Op
			j.Result = rec.Result
			j.Err = rec.Err
		}
	}
}

// poisonLocked flips the store read-only after a failed write. The
// record that failed is not counted, so Len never claims a job the
// journal doesn't durably hold. Callers hold s.mu.
func (s *Store) poisonLocked(stage string, cause error) error {
	s.readOnly = true
	err := fmt.Errorf("cluster: %s: %v: %w", stage, cause, ErrStoreReadOnly)
	if s.poison == nil {
		s.poison = err
	}
	return err
}

// Append journals one record and makes it durable per the store's sync
// policy before returning. Any write failure poisons the store into
// read-only mode: the failed record is not counted, and every later
// Append returns ErrStoreReadOnly.
func (s *Store) Append(rec Record) error {
	if rec.TS.IsZero() {
		rec.TS = time.Now()
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("cluster: encode record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return fmt.Errorf("cluster: store closed")
	}
	if s.readOnly {
		return fmt.Errorf("cluster: append %s: %w", rec.Op, ErrStoreReadOnly)
	}
	if s.writeFault != nil {
		if err := s.writeFault(); err != nil {
			return s.poisonLocked("append (injected fault)", err)
		}
	}
	if _, err := s.w.Write(frameRecord(blob)); err != nil {
		return s.poisonLocked("append", err)
	}
	if err := s.w.Flush(); err != nil {
		return s.poisonLocked("flush", err)
	}
	if s.sync {
		if err := s.f.Sync(); err != nil {
			return s.poisonLocked("fsync", err)
		}
	}
	s.jstats.Records++
	if rec.Op == OpSubmit {
		s.jobs++ // ReserveIDs keeps a logical id to one submit
	}
	return nil
}

// ReadOnly reports whether a failed append has poisoned the store.
func (s *Store) ReadOnly() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readOnly
}

// StoreStats is the store's observability snapshot, surfaced on /stats
// and (corrupt count, read-only flag) on /metrics.
type StoreStats struct {
	// Journal describes the journal file: Records counts the intact
	// records it holds (those OpenStore's scan read, plus every append
	// since, and none after Compact truncates it); Legacy, Corrupt and
	// TornTail stay what that scan found.
	Journal       JournalStats `json:"journal"`
	ReadOnly      bool         `json:"readOnly"`
	ReadOnlyCause string       `json:"readOnlyCause,omitempty"`
	Jobs          int          `json:"jobs"`
}

// Stats returns the current observability snapshot.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{Journal: s.jstats, ReadOnly: s.readOnly, Jobs: s.jobs}
	if s.poison != nil {
		st.ReadOnlyCause = s.poison.Error()
	}
	return st
}

// Len reports how many logical jobs the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs
}

// Compact folds the snapshot and journal again, writes the result as a
// snapshot and truncates the journal — bounding replay time after long
// uptimes. Terminal cancel and fail entries are dropped (nothing
// replays them); done results and pending jobs are kept. The fold
// writes no quarantine lines: OpenStore already copied every corrupt
// record. A poisoned store refuses to compact: the snapshot would
// capture state the journal never durably held.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return fmt.Errorf("cluster: store closed")
	}
	if s.readOnly {
		return fmt.Errorf("cluster: compact: %w", ErrStoreReadOnly)
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("cluster: flush: %w", err)
	}
	t, _, err := foldDir(s.dir, nil)
	if err != nil {
		return err
	}
	var snap struct {
		Jobs []*JobState `json:"jobs"`
	}
	for _, id := range t.order {
		if j := t.state[id]; j.Status != OpFail && j.Status != OpCancel {
			snap.Jobs = append(snap.Jobs, j)
		}
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("cluster: encode snapshot: %w", err)
	}
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("cluster: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("cluster: install snapshot: %w", err)
	}
	// Truncate the journal now that the snapshot covers its contents.
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("cluster: truncate journal: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("cluster: rewind journal: %w", err)
	}
	s.w.Reset(s.f)
	s.jobs = len(snap.Jobs)
	s.jstats.Records = 0
	return nil
}

// Close flushes and closes the journal. The store rejects appends after
// Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	flushErr := s.w.Flush()
	closeErr := s.f.Close()
	s.w, s.f = nil, nil
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}
