package chaos

import (
	"bytes"
	"fmt"
	"os"
	"strconv"

	"artisan/internal/cluster"
	"artisan/internal/jobs"
)

// Violation is one invariant breach, phrased for a human debugging the
// run.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// NodeJournal is the post-mortem view of one node's journal: every
// intact record in append order, the scan stats, and the quarantine
// sidecar's line count.
type NodeJournal struct {
	Node            int
	Records         []cluster.Record
	Stats           cluster.JournalStats
	QuarantineLines int
}

// LoadJournals rescans every node's journal from disk. Safe on a live
// fleet (appends are flushed per record) but meant for after Stop.
func LoadJournals(f *Fleet) ([]NodeJournal, error) {
	var out []NodeJournal
	for _, n := range f.Nodes() {
		nj := NodeJournal{Node: n.Index}
		stats, err := cluster.ScanJournal(cluster.JournalPath(n.Dir), func(rec cluster.Record) {
			nj.Records = append(nj.Records, rec)
		}, nil)
		if err != nil {
			return nil, err
		}
		nj.Stats = stats
		if blob, err := os.ReadFile(cluster.QuarantineFile(n.Dir)); err == nil {
			nj.QuarantineLines = bytes.Count(blob, []byte{'\n'})
		}
		out = append(out, nj)
	}
	return out, nil
}

func isTerminal(op cluster.Op) bool {
	return op == cluster.OpDone || op == cluster.OpFail || op == cluster.OpCancel
}

// nodeOf extracts the owning node index from a fleet job id
// ("n2-j-17" → 2); -1 when the id does not parse.
func nodeOf(id string) int {
	prefix, _, ok := jobs.ParseID(id)
	if !ok || len(prefix) < 2 || prefix[0] != 'n' {
		return -1
	}
	n, err := strconv.Atoi(prefix[1:])
	if err != nil {
		return -1
	}
	return n
}

// CheckJournalOrder verifies per-journal lifecycle ordering: every
// non-submit record follows its submit, and nothing — no start, no
// resume, no second terminal — follows a terminal record. This is the
// "finished jobs are never re-executed after replay" invariant read
// straight off the durable history.
func CheckJournalOrder(js []NodeJournal) []Violation {
	var out []Violation
	for _, j := range js {
		submitted := make(map[string]bool)
		terminal := make(map[string]cluster.Op)
		for _, rec := range j.Records {
			if op, done := terminal[rec.ID]; done {
				out = append(out, Violation{
					Invariant: "journal-terminal-order",
					Detail: fmt.Sprintf("node %d: job %s got %q after terminal %q",
						j.Node, rec.ID, rec.Op, op),
				})
				continue
			}
			if rec.Op == cluster.OpSubmit {
				if submitted[rec.ID] {
					out = append(out, Violation{
						Invariant: "journal-terminal-order",
						Detail:    fmt.Sprintf("node %d: job %s submitted twice", j.Node, rec.ID),
					})
				}
				submitted[rec.ID] = true
				continue
			}
			if !submitted[rec.ID] {
				out = append(out, Violation{
					Invariant: "journal-terminal-order",
					Detail: fmt.Sprintf("node %d: job %s got %q before any submit",
						j.Node, rec.ID, rec.Op),
				})
			}
			if isTerminal(rec.Op) {
				terminal[rec.ID] = rec.Op
			}
		}
	}
	return out
}

// finalStates folds one journal into id → last lifecycle op.
func finalStates(j NodeJournal) map[string]cluster.Op {
	final := make(map[string]cluster.Op)
	for _, rec := range j.Records {
		if op, ok := final[rec.ID]; ok && isTerminal(op) {
			continue // terminal sticks; order violations are reported elsewhere
		}
		final[rec.ID] = rec.Op
	}
	return final
}

var terminalStatus = map[string]bool{"done": true, "failed": true, "cancelled": true}

// CheckNoLostJobs verifies every submission the client saw accepted
// (cache hits excluded — their durability is the original job's) is
// terminal in its owner's journal. A node whose store was poisoned
// read-only cannot journal terminals any more, so the check falls back
// to that node's live job table.
func CheckNoLostJobs(rep *Report, js []NodeJournal) []Violation {
	byNode := make(map[int]map[string]cluster.Op, len(js))
	for _, j := range js {
		byNode[j.Node] = finalStates(j)
	}
	sweeps := make(map[int]NodeSweep, len(rep.Sweeps))
	for _, sw := range rep.Sweeps {
		sweeps[sw.Node] = sw
	}
	var out []Violation
	for _, a := range rep.Accepted {
		if a.Cached {
			continue
		}
		node := nodeOf(a.ID)
		if node < 0 {
			out = append(out, Violation{
				Invariant: "no-lost-job",
				Detail:    fmt.Sprintf("accepted id %q does not parse as a fleet job id", a.ID),
			})
			continue
		}
		op, journaled := byNode[node][a.ID]
		if journaled && isTerminal(op) {
			continue
		}
		if sw, ok := sweeps[node]; ok && sw.ReadOnly {
			if terminalStatus[sw.JobStatus[a.ID]] {
				continue // poisoned store: the live table is the best truth left
			}
		}
		if !journaled {
			out = append(out, Violation{
				Invariant: "no-lost-job",
				Detail:    fmt.Sprintf("accepted job %s has no journal record on node %d", a.ID, node),
			})
		} else {
			out = append(out, Violation{
				Invariant: "no-lost-job",
				Detail:    fmt.Sprintf("accepted job %s ended non-terminal (%q) on node %d", a.ID, op, node),
			})
		}
	}
	return out
}

// CheckResultCoherence verifies all journaled done-results for one
// cache key are byte-identical across the whole fleet: duplicates,
// failovers, and replays may recompute a design, but two clients must
// never read two different answers for the same request.
func CheckResultCoherence(js []NodeJournal) []Violation {
	var out []Violation
	type first struct {
		node   int
		id     string
		result []byte
	}
	byKey := make(map[string]first)
	for _, j := range js {
		keyOf := make(map[string]string)
		for _, rec := range j.Records {
			switch rec.Op {
			case cluster.OpSubmit:
				keyOf[rec.ID] = rec.Key
			case cluster.OpDone:
				key := keyOf[rec.ID]
				if key == "" || len(rec.Result) == 0 {
					continue
				}
				if prev, ok := byKey[key]; ok {
					if !bytes.Equal(prev.result, rec.Result) {
						out = append(out, Violation{
							Invariant: "result-coherence",
							Detail: fmt.Sprintf("key %q: node %d job %s result differs from node %d job %s",
								key, j.Node, rec.ID, prev.node, prev.id),
						})
					}
				} else {
					byKey[key] = first{node: j.Node, id: rec.ID, result: rec.Result}
				}
			}
		}
	}
	return out
}

// CheckSubmitAccounting reconciles journaled submit records with the
// client's view. At least one submit record must exist per accepted
// non-cached job; strict mode (no mid-request faults in the scenario)
// demands exact equality — a failover after a lost response is the only
// legitimate source of extra submit records.
func CheckSubmitAccounting(rep *Report, js []NodeJournal, strict bool) []Violation {
	journaled := 0
	for _, j := range js {
		seen := make(map[string]bool)
		for _, rec := range j.Records {
			if rec.Op == cluster.OpSubmit && !seen[rec.ID] {
				seen[rec.ID] = true
				journaled++
			}
		}
	}
	want := len(rep.Accepted) - rep.CachedCount()
	if journaled < want {
		return []Violation{{
			Invariant: "submit-accounting",
			Detail: fmt.Sprintf("%d journaled submits < %d accepted non-cached jobs",
				journaled, want),
		}}
	}
	if strict && journaled != want+rep.AcceptedUnknown {
		return []Violation{{
			Invariant: "submit-accounting",
			Detail: fmt.Sprintf("strict: %d journaled submits != %d accepted (non-cached) + %d unknown",
				journaled, want, rep.AcceptedUnknown),
		}}
	}
	return nil
}

// CheckNoOrphans verifies the post-drain sweep found no node still
// holding queued or running work — including jobs whose deadline budget
// expired while queued, which must cancel rather than linger.
func CheckNoOrphans(rep *Report) []Violation {
	var out []Violation
	for _, sw := range rep.Sweeps {
		if !sw.Alive {
			out = append(out, Violation{
				Invariant: "no-orphans",
				Detail:    fmt.Sprintf("node %d was dead at sweep time", sw.Node),
			})
			continue
		}
		if sw.Queued > 0 || sw.Running > 0 {
			out = append(out, Violation{
				Invariant: "no-orphans",
				Detail: fmt.Sprintf("node %d still holds %d queued / %d running jobs after drain",
					sw.Node, sw.Queued, sw.Running),
			})
		}
	}
	return out
}

// CheckMetricsConsistency cross-checks each node's three corruption
// surfaces — /metrics counter, /stats journal section, and a post-
// mortem rescan of the journal file — plus the read-only gauge against
// the store's own flag. Observability that disagrees with the disk is
// treated as a fleet bug, same as losing a job.
func CheckMetricsConsistency(rep *Report, js []NodeJournal) []Violation {
	rescan := make(map[int]NodeJournal, len(js))
	for _, j := range js {
		rescan[j.Node] = j
	}
	var out []Violation
	for _, sw := range rep.Sweeps {
		if int(sw.MetricCorrupt) != sw.StatsCorrupt {
			out = append(out, Violation{
				Invariant: "metrics-consistency",
				Detail: fmt.Sprintf("node %d: artisan_store_corrupt_total %g != /stats corrupt %d",
					sw.Node, sw.MetricCorrupt, sw.StatsCorrupt),
			})
		}
		if j, ok := rescan[sw.Node]; ok {
			if j.Stats.Corrupt != sw.StatsCorrupt {
				out = append(out, Violation{
					Invariant: "metrics-consistency",
					Detail: fmt.Sprintf("node %d: journal rescan found %d corrupt records, node reported %d",
						sw.Node, j.Stats.Corrupt, sw.StatsCorrupt),
				})
			}
			if sw.StatsCorrupt > 0 && j.QuarantineLines < sw.StatsCorrupt {
				out = append(out, Violation{
					Invariant: "metrics-consistency",
					Detail: fmt.Sprintf("node %d: %d corrupt records but only %d quarantined lines",
						sw.Node, sw.StatsCorrupt, j.QuarantineLines),
				})
			}
		}
		wantRO := 0.0
		if sw.ReadOnly {
			wantRO = 1.0
		}
		if sw.MetricRO != wantRO {
			out = append(out, Violation{
				Invariant: "metrics-consistency",
				Detail: fmt.Sprintf("node %d: artisan_store_readonly %g but store.ReadOnly()=%v",
					sw.Node, sw.MetricRO, sw.ReadOnly),
			})
		}
	}
	return out
}

// CheckAll runs every fleet invariant. strict additionally demands
// exact submit accounting — only valid for scenarios without
// mid-request faults (no partitions or truncation while submits are in
// flight).
func CheckAll(rep *Report, js []NodeJournal, strict bool) []Violation {
	var out []Violation
	out = append(out, CheckJournalOrder(js)...)
	out = append(out, CheckNoLostJobs(rep, js)...)
	out = append(out, CheckResultCoherence(js)...)
	out = append(out, CheckSubmitAccounting(rep, js, strict)...)
	out = append(out, CheckNoOrphans(rep)...)
	out = append(out, CheckMetricsConsistency(rep, js)...)
	return out
}
