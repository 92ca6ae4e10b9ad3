package experiment

import (
	"context"
	"strings"
	"testing"
)

// TestGenBenchSerialParallelIdentical: the parallel sweep reassembles in
// index order from config-derived seeds, so its rendered table matches
// the serial one byte for byte.
func TestGenBenchSerialParallelIdentical(t *testing.T) {
	cfg := GenBenchConfig{Trials: 6, Seed: 7}
	ser, err := RunGenBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := RunGenBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ser.String() != par.String() {
		t.Fatalf("serial and parallel tables differ:\n%s\nvs\n%s", ser, par)
	}
}

// TestGenBenchScoreSeparation: the sweep separates the roster as
// designed — retrieval fully credited, terse grounded but uncredited,
// fabricator failing groundedness on every trial.
func TestGenBenchScoreSeparation(t *testing.T) {
	table, err := RunGenBench(context.Background(), DefaultGenBenchConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	ret, ok := table.Row("retrieval")
	if !ok {
		t.Fatal("no retrieval row")
	}
	if ret.GroundPass*100 < ret.Trials*95 {
		t.Errorf("retrieval grounded %s; want >= 95%%", ret.PassRate())
	}
	if ret.Credited == 0 || ret.FoM <= 0 {
		t.Errorf("retrieval credited %d with FoM %g; want credited trials with positive FoM", ret.Credited, ret.FoM)
	}
	te, _ := table.Row("terse")
	if te.GroundPass != te.Trials || te.Credited != 0 {
		t.Errorf("terse grounded %s credited %d; want all grounded, none credited", te.PassRate(), te.Credited)
	}
	fab, _ := table.Row("fabricator")
	if fab.GroundPass != 0 {
		t.Errorf("fabricator grounded on %s trials; injections escaped the verifier", fab.PassRate())
	}
	if fab.Findings < fab.Trials*2 {
		t.Errorf("fabricator produced only %d findings over %d trials", fab.Findings, fab.Trials)
	}
	if len(table.Stages) < 2 {
		t.Errorf("task set covers stage counts %v; want at least two distinct depths", table.Stages)
	}
	if len(table.Families) < 6 {
		t.Errorf("task set covers %d compensation families %v; want >= 6", len(table.Families), table.Families)
	}
}

// TestGenBenchDesignerSubset: configured designer subsets select and
// order rows; unknown names fail fast.
func TestGenBenchDesignerSubset(t *testing.T) {
	table, err := RunGenBench(context.Background(), GenBenchConfig{
		Trials: 2, Seed: 1, Designers: []string{"terse", "retrieval"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 || table.Rows[0].Designer != "terse" || table.Rows[1].Designer != "retrieval" {
		t.Fatalf("rows = %+v; want terse then retrieval", table.Rows)
	}
	if _, err := RunGenBench(context.Background(), GenBenchConfig{Trials: 1, Seed: 1, Designers: []string{"nope"}}); err == nil ||
		!strings.Contains(err.Error(), "unknown designer") {
		t.Fatalf("unknown designer error = %v", err)
	}
	if _, err := RunGenBench(context.Background(), GenBenchConfig{Trials: 0, Seed: 1}); err == nil {
		t.Fatal("zero trials accepted")
	}
}
