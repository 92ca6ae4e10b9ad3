package chaos

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"artisan/internal/cluster"
)

// failOn aggregates violations into test failures with full detail.
func failOn(t *testing.T, vs []Violation) {
	t.Helper()
	for _, v := range vs {
		t.Errorf("invariant violated — %s", v)
	}
}

func mustRun(t *testing.T, f *Fleet) *Report {
	t.Helper()
	rep, err := f.Run()
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	return rep
}

func mustJournals(t *testing.T, f *Fleet) []NodeJournal {
	t.Helper()
	js, err := LoadJournals(f)
	if err != nil {
		t.Fatalf("load journals: %v", err)
	}
	return js
}

// TestChaosSmoke is the CI scenario: a 3-node fleet survives a seeded
// storm of kills, restarts, a partition, a brownout, and truncated
// responses, and every fleet invariant holds over the merged end state.
func TestChaosSmoke(t *testing.T) {
	f, err := NewFleet(Config{
		Nodes: 3, Seed: 42, Jobs: 60,
		DupRate: 0.3, DeadlineEvery: 7, DeadlineMs: 3,
		Dir: t.TempDir(),
		Events: []Event{
			{At: 10, Kind: EvKill, Node: 1},
			{At: 18, Kind: EvRestart, Node: 1},
			{At: 25, Kind: EvPartition, Node: 2},
			{At: 33, Kind: EvHeal, Node: 2},
			{At: 38, Kind: EvLatency, Node: 0, Latency: 8 * time.Millisecond},
			{At: 44, Kind: EvTruncate, Node: 0, Count: 8},
			{At: 48, Kind: EvHeal, Node: 0},
			{At: 50, Kind: EvKill, Node: 0},
			{At: 56, Kind: EvRestart, Node: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	rep := mustRun(t, f)
	if len(rep.Accepted) == 0 {
		t.Fatal("chaos run accepted no jobs at all")
	}
	failOn(t, CheckAll(rep, mustJournals(t, f), false))

	// The storm must not have cost any client a response: everything
	// submitted was either accepted or deliberately rejected.
	answered := len(rep.Accepted) + rep.AcceptedUnknown
	for _, n := range rep.Rejected {
		answered += n
	}
	if answered != rep.Submitted {
		t.Errorf("answered %d of %d submissions", answered, rep.Submitted)
	}
}

// TestChaosNoFaultBaseline proves the harness itself is quiet: with no
// faults scheduled, strict accounting holds — journaled submits match
// accepted non-cached jobs exactly, and nothing is rejected.
func TestChaosNoFaultBaseline(t *testing.T) {
	f, err := NewFleet(Config{Nodes: 3, Seed: 7, Jobs: 30, DupRate: 0.4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	rep := mustRun(t, f)
	failOn(t, CheckAll(rep, mustJournals(t, f), true))
	if len(rep.Rejected) != 0 {
		t.Errorf("fault-free run rejected requests: %v", rep.Rejected)
	}
	if rep.AcceptedUnknown != 0 {
		t.Errorf("fault-free run produced %d unreadable accepts", rep.AcceptedUnknown)
	}
	if len(rep.Accepted) != rep.Submitted {
		t.Errorf("accepted %d of %d submissions", len(rep.Accepted), rep.Submitted)
	}
}

// TestChaosDeadlineSweep pins the acceptance criterion for deadline
// budgets: every submission carries a budget shorter than one design
// run, and the post-run sweep still finds zero queued or running jobs —
// expired work cancels, it does not linger as an orphan.
func TestChaosDeadlineSweep(t *testing.T) {
	f, err := NewFleet(Config{
		Nodes: 2, Seed: 11, Jobs: 24,
		DeadlineEvery: 1, DeadlineMs: 2,
		ModelLatency: 10 * time.Millisecond,
		Dir:          t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	rep := mustRun(t, f)
	failOn(t, CheckAll(rep, mustJournals(t, f), false))
	for _, sw := range rep.Sweeps {
		if sw.Queued != 0 || sw.Running != 0 {
			t.Errorf("node %d: %d queued / %d running after deadline sweep", sw.Node, sw.Queued, sw.Running)
		}
	}
}

// TestChaosDiskFaultPoison injects journal write failures on one node
// mid-run: the node must poison itself read-only (surfaced on /healthz,
// /stats, and the artisan_store_readonly gauge), the router must shed
// it, and no accepted job may be lost fleet-wide.
func TestChaosDiskFaultPoison(t *testing.T) {
	f, err := NewFleet(Config{
		Nodes: 2, Seed: 23, Jobs: 30, DupRate: 0.2,
		Dir:    t.TempDir(),
		Events: []Event{{At: 8, Kind: EvDiskFault, Node: 0, Count: 0}}, // dead disk: every append fails
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	rep := mustRun(t, f)
	failOn(t, CheckAll(rep, mustJournals(t, f), false))

	poisoned := false
	for _, sw := range rep.Sweeps {
		if sw.ReadOnly {
			poisoned = true
			if sw.MetricRO != 1 {
				t.Errorf("node %d read-only but artisan_store_readonly=%g", sw.Node, sw.MetricRO)
			}
		}
	}
	if !poisoned {
		t.Fatal("disk faults never poisoned a store — the injection path is dead")
	}

	// The poisoned node must advertise the condition on /healthz so the
	// router pulls it from rotation.
	n0 := f.Nodes()[0].Server()
	rec := httptest.NewRecorder()
	n0.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://node0/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("poisoned node /healthz = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "store-read-only") {
		t.Errorf("poisoned node /healthz body lacks store-read-only: %s", rec.Body.String())
	}
}

// TestChaosCorruptJournalQuarantine bit-flips a mid-file done record
// between two fleet generations: the restarted node must count and
// quarantine the corrupt record (journal rescan, /stats, and /metrics
// all agreeing), classify no torn tail, re-execute the job whose
// terminal record was destroyed, and keep serving.
func TestChaosCorruptJournalQuarantine(t *testing.T) {
	dir := t.TempDir()
	f1, err := NewFleet(Config{Nodes: 1, Seed: 5, Jobs: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rep1 := mustRun(t, f1)
	nodeDir := f1.Nodes()[0].Dir
	f1.Stop()
	if len(rep1.Accepted) == 0 {
		t.Fatal("baseline run accepted nothing")
	}

	corruptedID := flipDoneRecord(t, cluster.JournalPath(nodeDir))

	f2, err := NewFleet(Config{Nodes: 1, Seed: 6, Jobs: 4, Dir: dir})
	if err != nil {
		t.Fatalf("restart over corrupted journal must not fail: %v", err)
	}
	defer f2.Stop()

	st := f2.Nodes()[0].Server().Persist().Store().Stats()
	if st.Journal.Corrupt != 1 {
		t.Fatalf("corrupt records = %d, want 1", st.Journal.Corrupt)
	}
	if st.Journal.TornTail {
		t.Error("mid-file corruption misclassified as a torn tail")
	}
	qblob, err := os.ReadFile(cluster.QuarantineFile(nodeDir))
	if err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
	if n := bytes.Count(qblob, []byte{'\n'}); n != 1 {
		t.Errorf("quarantine holds %d lines, want 1", n)
	}

	rep2 := mustRun(t, f2)
	failOn(t, CheckAll(rep2, mustJournals(t, f2), false))

	// The job whose done record was destroyed replayed as interrupted and
	// must have been re-executed to a terminal state.
	rec, err := cluster.ReadJobs(nodeDir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(rec.IDs, corruptedID) {
		t.Fatalf("job %s vanished after corruption", corruptedID)
	}
	for _, p := range rec.Pending {
		if p.ID == corruptedID {
			t.Errorf("job %s is %q after replay, want terminal", corruptedID, p.Status)
		}
	}

	// Every observability surface agrees on the corruption count.
	sw := rep2.Sweeps[0]
	if sw.StatsCorrupt != 1 || sw.MetricCorrupt != 1 {
		t.Errorf("/stats corrupt=%d, artisan_store_corrupt_total=%g, want 1/1",
			sw.StatsCorrupt, sw.MetricCorrupt)
	}
}

// flipDoneRecord corrupts one byte inside a mid-file done record's JSON
// body and returns that record's logical job id.
func flipDoneRecord(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte{'\n'})
	// The final split element is empty (trailing newline); the one before
	// it is the last real line — leave both alone so the flip is strictly
	// mid-file.
	for i := 0; i < len(lines)-2; i++ {
		tab := bytes.IndexByte(lines[i], '\t')
		if tab < 0 || !bytes.Contains(lines[i], []byte(`"op":"done"`)) {
			continue
		}
		var rec cluster.Record
		if err := json.Unmarshal(lines[i][tab+1:], &rec); err != nil {
			t.Fatalf("decode target record: %v", err)
		}
		lines[i][tab+10] ^= 0x01
		if err := os.WriteFile(path, bytes.Join(lines, []byte{'\n'}), 0o644); err != nil {
			t.Fatal(err)
		}
		return rec.ID
	}
	t.Fatal("no mid-file done record to corrupt")
	return ""
}

// TestChaosBrokenInvariantDetected proves the checkers have teeth: a
// journal with a record after a terminal, and a report whose accepted
// job has no journal trace, must both produce violations. A checker
// that cannot fail is not a checker.
func TestChaosBrokenInvariantDetected(t *testing.T) {
	bad := []NodeJournal{{Node: 0, Records: []cluster.Record{
		{Op: cluster.OpSubmit, ID: "n0-j-1", Key: "k"},
		{Op: cluster.OpDone, ID: "n0-j-1", Result: json.RawMessage(`{"x":1}`)},
		{Op: cluster.OpStart, ID: "n0-j-1"}, // re-execution after completion
	}}}
	if vs := CheckJournalOrder(bad); len(vs) != 1 {
		t.Fatalf("start-after-done produced %d violations, want 1: %v", len(vs), vs)
	}

	rep := &Report{
		Accepted: []Accepted{{ID: "n0-j-9"}},
		Sweeps:   []NodeSweep{{Node: 0, Alive: true}},
	}
	if vs := CheckNoLostJobs(rep, []NodeJournal{{Node: 0}}); len(vs) != 1 {
		t.Fatalf("lost job produced %d violations, want 1: %v", len(vs), vs)
	}

	diverged := []NodeJournal{
		{Node: 0, Records: []cluster.Record{
			{Op: cluster.OpSubmit, ID: "n0-j-1", Key: "k"},
			{Op: cluster.OpDone, ID: "n0-j-1", Result: json.RawMessage(`{"x":1}`)},
		}},
		{Node: 1, Records: []cluster.Record{
			{Op: cluster.OpSubmit, ID: "n1-j-1", Key: "k"},
			{Op: cluster.OpDone, ID: "n1-j-1", Result: json.RawMessage(`{"x":2}`)},
		}},
	}
	if vs := CheckResultCoherence(diverged); len(vs) != 1 {
		t.Fatalf("diverged results produced %d violations, want 1: %v", len(vs), vs)
	}
}

// TestChaosLong is the extended soak profile behind `make chaos`: a
// bigger fleet, a longer duplicate-heavy workload, and a denser fault
// script. Gated on ARTISAN_CHAOS_LONG=1 so CI stays fast.
func TestChaosLong(t *testing.T) {
	if os.Getenv("ARTISAN_CHAOS_LONG") == "" {
		t.Skip("set ARTISAN_CHAOS_LONG=1 to run the long chaos profile")
	}
	f, err := NewFleet(Config{
		Nodes: 5, Seed: 1337, Jobs: 300,
		DupRate: 0.35, DeadlineEvery: 9, DeadlineMs: 4,
		Dir: t.TempDir(),
		Events: []Event{
			{At: 20, Kind: EvKill, Node: 1},
			{At: 45, Kind: EvRestart, Node: 1},
			{At: 60, Kind: EvPartition, Node: 3},
			{At: 80, Kind: EvLatency, Node: 0, Latency: 10 * time.Millisecond},
			{At: 95, Kind: EvHeal, Node: 3},
			{At: 110, Kind: EvKill, Node: 2},
			{At: 120, Kind: EvTruncate, Node: 4, Count: 12},
			{At: 140, Kind: EvRestart, Node: 2},
			{At: 150, Kind: EvHeal, Node: 0},
			{At: 170, Kind: EvKill, Node: 0},
			{At: 171, Kind: EvPartition, Node: 1},
			{At: 200, Kind: EvRestart, Node: 0},
			{At: 210, Kind: EvHeal, Node: 1},
			{At: 230, Kind: EvKill, Node: 4},
			{At: 260, Kind: EvRestart, Node: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	rep := mustRun(t, f)
	if len(rep.Accepted) < 200 {
		t.Errorf("long run accepted only %d jobs", len(rep.Accepted))
	}
	failOn(t, CheckAll(rep, mustJournals(t, f), false))
}
