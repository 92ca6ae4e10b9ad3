package opt

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"artisan/internal/spec"
	"artisan/internal/topology"
)

func TestBOBORunsWithinBudget(t *testing.T) {
	g1, _ := spec.Group("G-1")
	res, err := BOBO(context.Background(), g1, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sims > 60 {
		t.Errorf("Sims = %d exceeds budget 60", res.Sims)
	}
	if res.Best == nil {
		t.Fatal("no best topology")
	}
	if math.IsInf(res.Score, -1) {
		t.Error("no candidate was ever scored")
	}
	if err := res.Best.Validate(); err != nil {
		t.Errorf("best topology invalid: %v", err)
	}
	// History is monotone best-so-far.
	for i := 1; i < len(res.History); i++ {
		if res.History[i] < res.History[i-1] {
			t.Fatalf("history not monotone at %d", i)
		}
	}
}

func TestRLBORunsWithinBudget(t *testing.T) {
	g1, _ := spec.Group("G-1")
	res, err := RLBO(context.Background(), g1, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sims > 60 {
		t.Errorf("Sims = %d exceeds budget 60", res.Sims)
	}
	if res.Best == nil {
		t.Fatal("no best topology")
	}
	if err := res.Best.Validate(); err != nil {
		t.Errorf("best topology invalid: %v", err)
	}
}

func TestBudgetValidation(t *testing.T) {
	g1, _ := spec.Group("G-1")
	if _, err := BOBO(context.Background(), g1, 5, 1); err == nil {
		t.Error("tiny BOBO budget accepted")
	}
	if _, err := RLBO(context.Background(), g1, 5, 1); err == nil {
		t.Error("tiny RLBO budget accepted")
	}
}

func TestOptimizersHonourCancelledContext(t *testing.T) {
	g1, _ := spec.Group("G-1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"BOBO", func() (*Result, error) { return BOBO(ctx, g1, 60, 1) }},
		{"RLBO", func() (*Result, error) { return RLBO(ctx, g1, 60, 1) }},
		{"GA", func() (*Result, error) { return GA(ctx, g1, 60, 1, DefaultGAOpts()) }},
	} {
		if _, err := tc.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
	}
}

// The headline comparison property: with the paper-scale budget the
// black-box baselines succeed only sporadically (Table 3 reports 0–4/10),
// in particular far below Artisan's 7–9/10. We run a few seeds of each on
// G-1 and require the success count to stay in the low band — if a
// baseline suddenly solved every seed the reproduction would be broken in
// the other direction.
func TestBaselinesAreWeak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed optimization in -short mode")
	}
	g1, _ := spec.Group("G-1")
	succBO, succRL := 0, 0
	const seeds = 4
	for s := int64(0); s < seeds; s++ {
		if r, err := BOBO(context.Background(), g1, 120, s); err == nil && r.Success {
			succBO++
		}
		if r, err := RLBO(context.Background(), g1, 120, s); err == nil && r.Success {
			succRL++
		}
	}
	if succBO == seeds {
		t.Errorf("BOBO succeeded on all %d seeds; expected sporadic success", seeds)
	}
	if succRL == seeds {
		t.Errorf("RLBO succeeded on all %d seeds; expected sporadic success", seeds)
	}
	t.Logf("BOBO %d/%d, RLBO %d/%d successes at budget 120", succBO, seeds, succRL, seeds)
}

func TestEmbeddingDecode(t *testing.T) {
	e := newEmb()
	d := e.dim()
	if d != len(topology.LegalPositions())*4+3 {
		t.Fatalf("dim = %d", d)
	}
	// All-zero point: every position decodes its first legal type, which
	// by construction is ConnNone → bare skeleton.
	x := make([]float64, d)
	tp := e.decode(x)
	if len(tp.Conns) != 0 {
		t.Errorf("zero point should decode to bare skeleton, got %d conns", len(tp.Conns))
	}
	if err := tp.Validate(); err != nil {
		t.Error(err)
	}
	// All-one-ish point decodes every position to its last legal type.
	for i := range x {
		x[i] = 0.999
	}
	tp2 := e.decode(x)
	if len(tp2.Conns) != len(topology.LegalPositions()) {
		t.Errorf("full point: %d conns, want every position occupied", len(tp2.Conns))
	}
	if err := tp2.Validate(); err != nil {
		t.Errorf("full decode invalid: %v", err)
	}
}

func TestMutateKindClasses(t *testing.T) {
	s := topology.NewSampler(3)
	tp := topology.NMC(30e-6, 40e-6, 250e-6, 4e-12, 3e-12)
	grew, shrank := false, false
	for i := 0; i < 30; i++ {
		if len(mutateKind(s, tp, 0).Conns) > len(tp.Conns) {
			grew = true
		}
		if len(mutateKind(s, tp, 1).Conns) < len(tp.Conns) {
			shrank = true
		}
	}
	if !grew || !shrank {
		t.Errorf("mutation classes not honoured: grew=%v shrank=%v", grew, shrank)
	}
}

func TestSign(t *testing.T) {
	if sign(3) != 1 || sign(-2) != -1 || sign(0) != 0 {
		t.Error("sign broken")
	}
}

func TestGARunsWithinBudget(t *testing.T) {
	g1, _ := spec.Group("G-1")
	res, err := GA(context.Background(), g1, 80, 3, DefaultGAOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sims > 80 {
		t.Errorf("Sims = %d exceeds budget", res.Sims)
	}
	if res.Best == nil || res.Best.Validate() != nil {
		t.Fatal("no valid best topology")
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] < res.History[i-1] {
			t.Fatalf("history not monotone at %d", i)
		}
	}
}

func TestGAValidation(t *testing.T) {
	g1, _ := spec.Group("G-1")
	if _, err := GA(context.Background(), g1, 5, 1, DefaultGAOpts()); err == nil {
		t.Error("tiny budget accepted")
	}
	// Degenerate options are clamped, not fatal.
	if _, err := GA(context.Background(), g1, 40, 1, GAOpts{Population: 1, Tournament: 1, Elite: 99}); err != nil {
		t.Errorf("clamping failed: %v", err)
	}
}

func TestCrossoverProducesValidChildren(t *testing.T) {
	s := topology.NewSampler(5)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		a, b := s.Random(), s.Random()
		child := crossover(s, a, b, rng)
		if err := child.Validate(); err != nil {
			t.Fatalf("invalid child at %d: %v", i, err)
		}
	}
}
