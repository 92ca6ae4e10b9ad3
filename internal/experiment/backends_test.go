package experiment

import (
	"context"
	"math"
	"reflect"
	"testing"
)

func backendTestConfig() BackendConfig {
	cfg := DefaultBackendConfig(42)
	cfg.Trials = 2
	cfg.Budget = 40
	cfg.Backends = []string{"bo", "whitebox", "hybrid"}
	cfg.Groups = []string{"G-1"}
	return cfg
}

func TestRunBackendsValidation(t *testing.T) {
	cfg := backendTestConfig()
	cfg.Trials = 0
	if _, err := RunBackends(context.Background(), cfg); err == nil {
		t.Error("zero trials accepted")
	}
	cfg = backendTestConfig()
	cfg.Budget = 5
	if _, err := RunBackends(context.Background(), cfg); err == nil {
		t.Error("tiny budget accepted")
	}
	cfg = backendTestConfig()
	cfg.Detune = math.NaN()
	if _, err := RunBackends(context.Background(), cfg); err == nil {
		t.Error("NaN detune accepted")
	}
	cfg = backendTestConfig()
	cfg.Backends = []string{"annealing"}
	if _, err := RunBackends(context.Background(), cfg); err == nil {
		t.Error("unknown backend accepted")
	}
	cfg = backendTestConfig()
	cfg.Groups = []string{"G-9"}
	if _, err := RunBackends(context.Background(), cfg); err == nil {
		t.Error("unknown group accepted")
	}
}

func TestRunBackendsTable(t *testing.T) {
	cfg := backendTestConfig()
	table, err := RunBackends(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(table.Cells))
	}
	for _, c := range table.Cells {
		if c.Trials != cfg.Trials {
			t.Errorf("%s/%s trials = %d", c.Backend, c.Group, c.Trials)
		}
		if c.Evals <= 0 || c.Evals > float64(cfg.Budget) {
			t.Errorf("%s/%s mean evals = %g out of (0, %d]", c.Backend, c.Group, c.Evals, cfg.Budget)
		}
	}
	// The analytic backends should reach spec dramatically earlier than
	// plain BO on the calibrated NMC family.
	wb, ok := table.Cell("whitebox", "G-1")
	if !ok || wb.Successes == 0 {
		t.Fatalf("whitebox cell missing or failed: %+v", wb)
	}
	bo, _ := table.Cell("bo", "G-1")
	if wb.EvalsToOK >= bo.EvalsToOK {
		t.Errorf("whitebox ToSpec %.1f not better than bo %.1f", wb.EvalsToOK, bo.EvalsToOK)
	}
	if adv := table.EvalAdvantage("whitebox", "bo", "G-1"); adv < 1 {
		t.Errorf("EvalAdvantage = %g, want > 1", adv)
	}
	if table.String() == "" {
		t.Error("empty rendering")
	}
}

// TestRunBackendsSerialParallelIdentical is the determinism bar: the
// parallel sweep must produce byte-identical cells to the serial one.
func TestRunBackendsSerialParallelIdentical(t *testing.T) {
	cfg := backendTestConfig()
	serial, err := RunBackends(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	parallel, err := RunBackends(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Cells, parallel.Cells) {
		t.Errorf("serial != parallel:\n%v\nvs\n%v", serial.Cells, parallel.Cells)
	}
	if serial.String() != parallel.String() {
		t.Error("rendered tables differ")
	}
	again, err := RunBackends(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parallel.Cells, again.Cells) {
		t.Error("repeated parallel run differs")
	}
}

func TestRunBackendsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBackends(ctx, backendTestConfig()); err == nil {
		t.Error("cancelled sweep returned a table")
	}
}
