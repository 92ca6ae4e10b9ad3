package experiment

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"artisan/internal/telemetry"
)

func TestCostModelCalibration(t *testing.T) {
	c := DefaultCostModel()
	// Artisan G-1-style session: ~10 QA steps, 1 sim, mapping → paper
	// reports 7.68 m; accept 6–10 m.
	d := c.ArtisanTime(1, 10, true)
	if d < 6*time.Minute || d > 10*time.Minute {
		t.Errorf("Artisan modeled time = %v, want 6–10 m", d)
	}
	// BOBO at 250 sims → paper 4.55–6.09 h.
	if bd := c.BOBOTime(250); bd < 4*time.Hour || bd > 7*time.Hour {
		t.Errorf("BOBO modeled time = %v, want 4–7 h", bd)
	}
	// RLBO at 250 sims → paper 5.28–6.63 h.
	if rd := c.RLBOTime(250); rd < 4*time.Hour || rd > 7*time.Hour {
		t.Errorf("RLBO modeled time = %v, want 4–7 h", rd)
	}
	// Speedup shape: baseline/Artisan should land in the paper's 20–50×.
	sp := float64(c.BOBOTime(250)) / float64(c.ArtisanTime(1, 10, true))
	if sp < 15 || sp > 60 {
		t.Errorf("modeled speedup = %.1f×, want 15–60×", sp)
	}
}

// A reduced-size Table 3 (2 trials, small budget) still reproduces the
// paper's qualitative structure: the off-the-shelf LLMs never succeed,
// Artisan succeeds on (almost) every trial, Artisan is orders of
// magnitude faster than the optimizers.
func TestTable3Shape(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Trials = 2
	cfg.Budget = 60
	cfg.Groups = []string{"G-1", "G-5"}
	t3, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Cells) != len(AllMethods())*2 {
		t.Fatalf("cells = %d", len(t3.Cells))
	}
	for _, group := range cfg.Groups {
		if c, _ := t3.Cell(MethodGPT4, group); c.Successes != 0 {
			t.Errorf("GPT-4 on %s: %d successes, want 0", group, c.Successes)
		}
		if c, _ := t3.Cell(MethodLlama2, group); c.Successes != 0 {
			t.Errorf("Llama2 on %s: %d successes, want 0", group, c.Successes)
		}
		a, _ := t3.Cell(MethodArtisan, group)
		if a.Successes < 1 {
			t.Errorf("Artisan on %s: %d/%d successes", group, a.Successes, a.Trials)
		}
		if a.Time <= 0 || a.Time > 30*time.Minute {
			t.Errorf("Artisan time on %s = %v", group, a.Time)
		}
		b, _ := t3.Cell(MethodBOBO, group)
		if b.Time < 30*time.Minute {
			t.Errorf("BOBO time on %s = %v, want hours-scale", group, b.Time)
		}
		if s := t3.Speedup(MethodBOBO, group); s < 3 {
			t.Errorf("speedup over BOBO on %s = %.1f", group, s)
		}
	}
	text := t3.String()
	for _, want := range []string{"Method", "Artisan", "BOBO", "GPT-4", "Succ."} {
		if !strings.Contains(text, want) {
			t.Errorf("table text missing %q", want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Trials = 0
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("zero trials accepted")
	}
	cfg = DefaultConfig(1)
	cfg.Trials = 1
	cfg.Groups = []string{"G-9"}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("unknown group accepted")
	}
}

func TestCellFormatting(t *testing.T) {
	c := Cell{Method: MethodArtisan, Group: "G-1", Trials: 10, Successes: 9}
	if c.SuccessRate() != "9/10" {
		t.Errorf("SuccessRate = %q", c.SuccessRate())
	}
	if fmtDur(0) != "-" {
		t.Error("zero duration should render as -")
	}
	if !strings.HasSuffix(fmtDur(90*time.Minute), "h") {
		t.Error("hours formatting")
	}
	if !strings.HasSuffix(fmtDur(5*time.Minute), "m") {
		t.Error("minutes formatting")
	}
}

// Determinism: the harness is fully seeded.
func TestHarnessDeterministic(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Trials = 2
	cfg.Methods = []Method{MethodArtisan}
	cfg.Groups = []string{"G-1"}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("harness is not deterministic")
	}
}

// Black-box trials run under the sweep's context, so each optimizer's
// span lands on the caller's tracer as one root.
func TestBlackBoxTrialsTraceUnderSweepContext(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Trials = 1
	cfg.Budget = 20
	cfg.Groups = []string{"G-1"}
	cfg.Methods = []Method{MethodBOBO, MethodRLBO, MethodGA}
	tracer := telemetry.NewTracer(8)
	if _, err := Run(telemetry.WithTracer(context.Background(), tracer), cfg); err != nil {
		t.Fatal(err)
	}
	roots := map[string]int{}
	for _, s := range tracer.Traces() {
		roots[s.Name()]++
	}
	want := map[string]int{"opt.bobo": 1, "opt.rlbo": 1, "opt.ga": 1}
	if !reflect.DeepEqual(roots, want) {
		t.Errorf("trace roots = %v, want %v", roots, want)
	}
}
