package experiment

import (
	"context"
	"errors"
	"testing"
)

// artisanSuccesses runs an Artisan-only sweep and tallies successes.
func artisanSuccesses(t *testing.T, cfg Config) (succ, trials int) {
	t.Helper()
	t3, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range t3.Cells {
		succ += c.Successes
		trials += c.Trials
	}
	return succ, trials
}

// The acceptance bar of the resilience layer: with 30% tool-error fault
// injection and a fixed seed, the Table 3 Artisan success rates stay
// within the no-fault band — retries and the fallback ladder absorb the
// chaos instead of letting it show up as failed designs.
func TestChaosSweepWithinNoFaultBand(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.Trials = 5
	cfg.Methods = []Method{MethodArtisan}
	cfg.Groups = []string{"G-1", "G-3", "G-5"}

	healthySucc, trials := artisanSuccesses(t, cfg)

	chaotic := cfg
	chaotic.FaultRate = 0.3
	chaoticSucc, _ := artisanSuccesses(t, chaotic)

	// The band: the chaotic sweep may lose at most one success per group
	// relative to the healthy sweep (the paper's own 7–9/10 spread).
	band := len(cfg.Groups)
	if chaoticSucc < healthySucc-band {
		t.Errorf("chaotic successes %d/%d fell outside the no-fault band (healthy %d/%d)",
			chaoticSucc, trials, healthySucc, trials)
	}
}

// Chaos sweeps are seeded per trial, so a repeated chaotic sweep is
// byte-identical — a production incident's seed replays exactly.
func TestChaosSweepDeterministic(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Trials = 3
	cfg.Methods = []Method{MethodArtisan}
	cfg.Groups = []string{"G-1"}
	cfg.FaultRate = 0.3

	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatal("cell counts diverged")
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Errorf("cell %d diverged: %+v vs %+v", i, a.Cells[i], b.Cells[i])
		}
	}
}

// Cancelling the sweep context stops both the serial and the parallel
// harness between trials with the context's error.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig(1)
	cfg.Trials = 3
	cfg.Methods = []Method{MethodArtisan}
	cfg.Groups = []string{"G-1"}

	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("serial: err = %v, want Canceled", err)
	}
	cfg.Workers = 4
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("parallel: err = %v, want Canceled", err)
	}
}
