package experiment

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestMeasuredPhases runs a small Artisan-only sweep and checks the
// trace-derived phase breakdown: the agentic cells get one, the
// black-box baselines don't, and the renderer mentions both.
func TestMeasuredPhases(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Trials = 1
	cfg.Budget = 60
	cfg.Methods = []Method{MethodBOBO, MethodArtisan}
	cfg.Groups = []string{"G-1"}
	t3, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt := t3.PhasesFor(MethodArtisan, "G-1")
	if pt == nil {
		t.Fatal("no measured phases for Artisan/G-1")
	}
	if pt["simulation"] <= 0 {
		t.Errorf("simulation phase = %v, want > 0 (got %v)", pt["simulation"], pt)
	}
	if pt["design-flow"] <= 0 {
		t.Errorf("design-flow phase = %v, want > 0 (got %v)", pt["design-flow"], pt)
	}
	if got := t3.PhasesFor(MethodBOBO, "G-1"); got != nil {
		t.Errorf("BOBO is black-box but has phases %v", got)
	}

	text := t3.PhaseBreakdown()
	if !strings.Contains(text, "Artisan") || !strings.Contains(text, "simulation=") {
		t.Errorf("breakdown missing content:\n%s", text)
	}
}

func TestPhaseBreakdownEmpty(t *testing.T) {
	t3 := &Table3{}
	if !strings.Contains(t3.PhaseBreakdown(), "no traced cells") {
		t.Error("empty breakdown should say so")
	}
}

func TestMeanPhases(t *testing.T) {
	results := []trialResult{
		{phases: PhaseTimes{"simulation": 4 * time.Millisecond}},
		{phases: PhaseTimes{"simulation": 2 * time.Millisecond, "tuning": 10 * time.Millisecond}},
		{}, // untraced trial: excluded from the mean
	}
	got := meanPhases(results)
	if got["simulation"] != 3*time.Millisecond {
		t.Errorf("simulation mean = %v, want 3ms", got["simulation"])
	}
	if got["tuning"] != 5*time.Millisecond {
		t.Errorf("tuning mean = %v, want 5ms", got["tuning"])
	}
	if meanPhases(nil) != nil {
		t.Error("no trials should yield nil phases")
	}
}
