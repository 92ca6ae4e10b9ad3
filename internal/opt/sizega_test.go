package opt

import (
	"context"
	"errors"
	"math"
	"testing"

	"artisan/internal/sizing"
)

// counted is a bounded 3-D bowl whose objective counts its evaluations
// and fails the test on a point outside the bounds.
func counted(t *testing.T) (sizing.Problem, *int) {
	n := 0
	lo, hi := []float64{-1, 0, 2}, []float64{1, 3, 5}
	return sizing.Problem{Lo: lo, Hi: hi, Eval: func(x []float64) float64 {
		n++
		s := 0.0
		for i, v := range x {
			if v < lo[i] || v > hi[i] {
				t.Fatalf("evaluation %d: x[%d] = %g outside [%g, %g]", n, i, v, lo[i], hi[i])
			}
			s -= v * v
		}
		return s
	}}, &n
}

func TestSizeGAValidation(t *testing.T) {
	ok := func([]float64) float64 { return 0 }
	inf := math.Inf(1)
	for name, p := range map[string]sizing.Problem{
		"empty":         {Eval: ok},
		"mismatched":    {Lo: []float64{0, 0}, Hi: []float64{1}, Eval: ok},
		"inverted":      {Lo: []float64{1}, Hi: []float64{0}, Eval: ok},
		"NaN":           {Lo: []float64{0, math.NaN()}, Hi: []float64{1, 1}, Eval: ok},
		"+Inf":          {Lo: []float64{0, 0}, Hi: []float64{1, inf}, Eval: ok},
		"-Inf":          {Lo: []float64{0, -inf}, Hi: []float64{1, 1}, Eval: ok},
		"nil objective": {Lo: []float64{0}, Hi: []float64{1}},
	} {
		if err := SizeGA(context.Background(), p, 60, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	p, n := counted(t)
	if err := SizeGA(context.Background(), p, 7, 1); err == nil {
		t.Error("budget 7 accepted")
	}
	if *n != 0 {
		t.Errorf("rejected runs evaluated %d points", *n)
	}
}

// TestSizeGABudget pins the evaluation count of the backend's trial
// budget — a population of 16, then three generations of 14 children
// behind 2 elites — and holds every budget from 8 to 100 to its limit.
func TestSizeGABudget(t *testing.T) {
	p, n := counted(t)
	if err := SizeGA(context.Background(), p, 60, 3); err != nil {
		t.Fatal(err)
	}
	if *n != 16+3*14 {
		t.Errorf("budget 60: %d evaluations, want 58", *n)
	}
	for budget := 8; budget <= 100; budget++ {
		*n = 0
		if err := SizeGA(context.Background(), p, budget, int64(budget)); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if *n > budget || *n < min(16, budget/2) {
			t.Errorf("budget %d: %d evaluations", budget, *n)
		}
	}
}

func TestSizeGACancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, n := counted(t)
	if err := SizeGA(ctx, p, 60, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if *n != 16 {
		t.Errorf("cancelled run evaluated %d points, want the initial population of 16", *n)
	}
}
