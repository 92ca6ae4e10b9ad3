package sizing

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
	"testing/quick"

	"artisan/internal/units"
)

func sphere(opt []float64) func([]float64) float64 {
	return func(x []float64) float64 {
		s := 0.0
		for i := range x {
			d := x[i] - opt[i]
			s += d * d
		}
		return -s
	}
}

func TestOptimizeSphere2D(t *testing.T) {
	p := Problem{
		Lo:   []float64{-5, -5},
		Hi:   []float64{5, 5},
		Eval: sphere([]float64{1.2, -2.3}),
	}
	res, err := Optimize(context.Background(), p, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestY < -0.3 {
		t.Errorf("BestY = %g, want near 0 (found x=%v)", res.BestY, res.BestX)
	}
	if res.Evals != 12+40 {
		t.Errorf("Evals = %d, want 52", res.Evals)
	}
}

func TestOptimizeInitIncumbent(t *testing.T) {
	opt := []float64{1.2, -2.3}
	p := Problem{
		Lo:   []float64{-5, -5},
		Hi:   []float64{5, 5},
		Eval: sphere(opt),
	}
	o := DefaultOptions(1)
	o.Init = []float64{1.2, -2.3} // exact optimum as incumbent
	res, err := Optimize(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	// The incumbent is evaluated first and adds one evaluation.
	if res.Evals != 1+12+40 {
		t.Errorf("Evals = %d, want 53", res.Evals)
	}
	// The incumbent passes through the unit-cube normalization, so the
	// score is optimal only to floating-point round-trip precision.
	if res.History[0] < -1e-25 {
		t.Errorf("History[0] = %g, want the incumbent's near-zero score", res.History[0])
	}
	if res.BestY < -1e-25 {
		t.Errorf("BestY = %g, want near 0 (incumbent was optimal)", res.BestY)
	}
	if !units.ApproxEqual(res.BestX[0], opt[0], 1e-9) || !units.ApproxEqual(res.BestX[1], opt[1], 1e-9) {
		t.Errorf("BestX = %v, want the incumbent", res.BestX)
	}
}

func TestOptimizeInitValidation(t *testing.T) {
	p := Problem{Lo: []float64{-5, -5}, Hi: []float64{5, 5}, Eval: sphere([]float64{0, 0})}
	o := DefaultOptions(1)
	o.Init = []float64{1}
	if _, err := Optimize(context.Background(), p, o); err == nil {
		t.Error("dimension mismatch accepted")
	}
	o.Init = []float64{0, 7}
	if _, err := Optimize(context.Background(), p, o); err == nil {
		t.Error("out-of-bounds incumbent accepted")
	}
	o.Init = []float64{-5, 5} // boundary points are valid
	if _, err := Optimize(context.Background(), p, o); err != nil {
		t.Errorf("boundary incumbent rejected: %v", err)
	}
	for _, bad := range [][]float64{{math.NaN(), 0}, {0, math.NaN()}, {math.Inf(1), 0}, {0, math.Inf(-1)}} {
		o.Init = bad
		if _, err := Optimize(context.Background(), p, o); err == nil {
			t.Errorf("non-finite incumbent %v accepted", bad)
		}
	}
}

func TestOptimizeNilInitUnchanged(t *testing.T) {
	// A nil incumbent must reproduce the historical run byte for byte —
	// goldens and benchmarks depend on it.
	p := Problem{Lo: []float64{-5, -5}, Hi: []float64{5, 5}, Eval: sphere([]float64{1.2, -2.3})}
	a, err := Optimize(context.Background(), p, DefaultOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions(7)
	o.Init = nil
	b, err := Optimize(context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Evals != b.Evals || a.BestY != b.BestY {
		t.Errorf("nil Init changed the run: (%d, %g) vs (%d, %g)", a.Evals, a.BestY, b.Evals, b.BestY)
	}
}

func TestOptimizeBeatsRandomSearch(t *testing.T) {
	// On a smooth objective with equal budgets, BO must beat pure random
	// search on the median of several seeds.
	obj := sphere([]float64{0.5, -1.5, 2.0})
	p := Problem{Lo: []float64{-5, -5, -5}, Hi: []float64{5, 5, 5}, Eval: obj}
	boWins := 0
	const seeds = 5
	for s := int64(0); s < seeds; s++ {
		res, err := Optimize(context.Background(), p, Options{InitSamples: 10, Iterations: 30, Candidates: 256, Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(s + 1000))
		randBest := math.Inf(-1)
		for i := 0; i < 40; i++ {
			x := make([]float64, 3)
			for j := range x {
				x[j] = -5 + 10*rng.Float64()
			}
			if y := obj(x); y > randBest {
				randBest = y
			}
		}
		if res.BestY > randBest {
			boWins++
		}
	}
	if boWins < 4 {
		t.Errorf("BO beat random search only %d/%d times", boWins, seeds)
	}
}

func TestHistoryMonotone(t *testing.T) {
	p := Problem{Lo: []float64{-2}, Hi: []float64{2},
		Eval: func(x []float64) float64 { return math.Sin(3*x[0]) - x[0]*x[0]/4 }}
	res, err := Optimize(context.Background(), p, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] < res.History[i-1] {
			t.Fatalf("history not monotone at %d", i)
		}
	}
	if len(res.History) != res.Evals {
		t.Errorf("history length %d != evals %d", len(res.History), res.Evals)
	}
}

func TestResultWithinBounds(t *testing.T) {
	f := func(seed int64) bool {
		p := Problem{Lo: []float64{0, -1}, Hi: []float64{1, 1},
			Eval: func(x []float64) float64 { return x[0] - x[1]*x[1] }}
		res, err := Optimize(context.Background(), p, Options{InitSamples: 5, Iterations: 8, Candidates: 64, Seed: seed})
		if err != nil {
			return false
		}
		for i := range res.BestX {
			if res.BestX[i] < p.Lo[i]-1e-12 || res.BestX[i] > p.Hi[i]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestOptimizeValidation(t *testing.T) {
	if _, err := Optimize(context.Background(), Problem{}, DefaultOptions(1)); err == nil {
		t.Error("empty problem accepted")
	}
	if _, err := Optimize(context.Background(), Problem{Lo: []float64{1}, Hi: []float64{0},
		Eval: func([]float64) float64 { return 0 }}, DefaultOptions(1)); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := Optimize(context.Background(), Problem{Lo: []float64{0}, Hi: []float64{1}}, DefaultOptions(1)); err == nil {
		t.Error("nil objective accepted")
	}
	inf := math.Inf(1)
	for _, b := range [][2]float64{{-inf, inf}, {0, inf}, {-inf, 0}, {math.NaN(), 1}, {0, math.NaN()}} {
		p := Problem{Lo: []float64{0, b[0]}, Hi: []float64{1, b[1]}, Eval: func([]float64) float64 { return 0 }}
		if _, err := Optimize(context.Background(), p, DefaultOptions(1)); err == nil {
			t.Errorf("bounds [%g, %g] accepted", b[0], b[1])
		}
		if _, err := NelderMead(p, []float64{0.5, 0}, 10); err == nil {
			t.Errorf("NelderMead accepted bounds [%g, %g]", b[0], b[1])
		}
	}
}

func TestConstantObjectiveSurvives(t *testing.T) {
	p := Problem{Lo: []float64{0}, Hi: []float64{1},
		Eval: func([]float64) float64 { return 7 }}
	res, err := Optimize(context.Background(), p, Options{InitSamples: 4, Iterations: 6, Candidates: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestY != 7 {
		t.Errorf("BestY = %g", res.BestY)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	// maximize -Rosenbrock: optimum at (1,1).
	p := Problem{
		Lo: []float64{-2, -2}, Hi: []float64{2, 2},
		Eval: func(x []float64) float64 {
			a := 1 - x[0]
			b := x[1] - x[0]*x[0]
			return -(a*a + 100*b*b)
		},
	}
	res, err := NelderMead(p, []float64{-1, 1}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestY < -0.05 {
		t.Errorf("NM best = %g at %v, want near 0 at (1,1)", res.BestY, res.BestX)
	}
}

func TestNelderMeadRespectsBounds(t *testing.T) {
	p := Problem{Lo: []float64{0}, Hi: []float64{1},
		Eval: func(x []float64) float64 { return x[0] }} // pushes to upper bound
	res, err := NelderMead(p, []float64{0.5}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestX[0] < 0.99 || res.BestX[0] > 1 {
		t.Errorf("BestX = %v, want at bound 1", res.BestX)
	}
}

func TestNelderMeadValidation(t *testing.T) {
	p := Problem{Lo: []float64{0, 0}, Hi: []float64{1, 1},
		Eval: func(x []float64) float64 { return 0 }}
	if _, err := NelderMead(p, []float64{0.5}, 10); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// fitted builds a regressor over the training set and fits it.
func fitted(xs [][]float64, ys []float64) *gp {
	g := newGP(len(xs[0]), len(xs), 1)
	for i := range xs {
		g.add(xs[i], ys[i])
	}
	g.fit()
	return g
}

// predictAt is the posterior (μ, σ) at a single point.
func (g *gp) predictAt(xq []float64) (mu, sd float64) {
	m, s := make([]float64, 1), make([]float64, 1)
	g.predict(xq, m, s)
	return m[0], s[0]
}

func TestGPInterpolates(t *testing.T) {
	xs := [][]float64{{0.1}, {0.5}, {0.9}}
	ys := []float64{1, 3, 2}
	g := fitted(xs, ys)
	if g.broken {
		t.Fatal("kernel factorization failed")
	}
	for i := range xs {
		mu, sd := g.predictAt(xs[i])
		if !units.ApproxEqual(mu, ys[i], 0.05) {
			t.Errorf("GP at training point %v: mu=%g want %g", xs[i], mu, ys[i])
		}
		if sd > 0.3 {
			t.Errorf("GP sd at training point = %g, want small", sd)
		}
	}
	// Far point has larger predictive sd than training points.
	_, sdFar := g.predictAt([]float64{5})
	_, sdNear := g.predictAt(xs[1])
	if sdFar <= sdNear {
		t.Error("predictive sd should grow away from data")
	}
}

// TestCholeskyAndSolve checks the packed factor and α against the
// kernel itself: L·Lᵀ reproduces K + σn²·I, and (K + σn²·I)·α gives back
// the standardized targets.
func TestCholeskyAndSolve(t *testing.T) {
	xs := [][]float64{{0.1, 0.7}, {0.4, 0.2}, {0.45, 0.25}, {0.9, 0.9}}
	ys := []float64{1, -2, 3, 0.5}
	g := fitted(xs, ys)
	if g.broken {
		t.Fatal("kernel factorization failed")
	}
	n := len(xs)
	a := kernelMatrix(xs, g.ell, g.sigF2, g.sigN2)
	lij := func(i, j int) float64 {
		if j > i {
			return 0
		}
		return g.l[i*(i+1)/2+j]
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			llt := 0.0
			for k := 0; k < n; k++ {
				llt += lij(i, k) * lij(j, k)
			}
			if !units.ApproxEqual(llt, a[i][j], 1e-9) {
				t.Errorf("(L·Lᵀ)[%d][%d] = %g, want %g", i, j, llt, a[i][j])
			}
		}
	}
	for i := range ys {
		b := (ys[i] - g.mean) / g.std
		got := 0.0
		for j := range g.alpha[:n] {
			got += a[i][j] * g.alpha[j]
		}
		if !units.ApproxEqual(got, b, 1e-9) {
			t.Errorf("row %d: Ax = %g, want %g", i, got, b)
		}
	}
}

func TestLatinHypercubeStratified(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := latinHypercube(10, 3, rng)
	if len(pts) != 10 {
		t.Fatal("wrong count")
	}
	// In each dimension exactly one point per decile.
	for d := 0; d < 3; d++ {
		seen := make([]bool, 10)
		for _, p := range pts {
			bin := int(p[d] * 10)
			if bin == 10 {
				bin = 9
			}
			if seen[bin] {
				t.Fatalf("dim %d: two points in decile %d", d, bin)
			}
			seen[bin] = true
		}
	}
}

func TestExpectedImprovement(t *testing.T) {
	if expectedImprovement(1, 0, 0) != 0 {
		t.Error("zero sd should give zero EI")
	}
	// Higher mean → higher EI at equal sd.
	if expectedImprovement(2, 1, 0) <= expectedImprovement(1, 1, 0) {
		t.Error("EI not increasing in mean")
	}
	// All else equal, more uncertainty → more EI below the incumbent.
	if expectedImprovement(-1, 2, 0) <= expectedImprovement(-1, 0.5, 0) {
		t.Error("EI not increasing in sd below incumbent")
	}
}

// TestOptimizeNaNObjective is the regression test for the NaN-poisoning
// bug: a single non-finite objective value used to contaminate the GP
// standardization, after which no acquisition candidate ever won and the
// optimizer crashed evaluating a nil candidate (index out of range in the
// objective). Non-finite values must be sanitized and the run completed.
func TestOptimizeNaNObjective(t *testing.T) {
	for name, eval := range map[string]func(x []float64) float64{
		"allNaN":  func(x []float64) float64 { _ = x[1]; return math.NaN() },
		"allPInf": func(x []float64) float64 { _ = x[1]; return math.Inf(1) },
		"mixed": func(x []float64) float64 {
			if x[0] > 0 { // half the domain is non-finite
				return math.NaN()
			}
			return -(x[0]*x[0] + x[1]*x[1])
		},
	} {
		t.Run(name, func(t *testing.T) {
			p := Problem{Lo: []float64{-1, -1}, Hi: []float64{1, 1}, Eval: eval}
			o := DefaultOptions(7)
			o.InitSamples, o.Iterations, o.Candidates = 6, 10, 64
			res, err := Optimize(context.Background(), p, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Evals != o.InitSamples+o.Iterations {
				t.Errorf("Evals = %d, want %d", res.Evals, o.InitSamples+o.Iterations)
			}
			if len(res.BestX) != 2 {
				t.Fatalf("BestX = %v, want a 2-vector", res.BestX)
			}
			if math.IsNaN(res.BestY) || math.IsInf(res.BestY, 0) {
				t.Errorf("BestY = %v, want finite", res.BestY)
			}
			for _, h := range res.History {
				if math.IsNaN(h) || math.IsInf(h, 0) {
					t.Fatalf("History contains non-finite value %v", h)
				}
			}
		})
	}
}

// TestOptimizeMixedNaNStillImproves checks the sanitized run still
// optimizes on the finite half of the domain.
func TestOptimizeMixedNaNStillImproves(t *testing.T) {
	target := []float64{-0.5, 0.25}
	p := Problem{Lo: []float64{-1, -1}, Hi: []float64{1, 1}, Eval: func(x []float64) float64 {
		if x[0] > 0 {
			return math.NaN()
		}
		dx, dy := x[0]-target[0], x[1]-target[1]
		return -(dx*dx + dy*dy)
	}}
	res, err := Optimize(context.Background(), p, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestY < -0.05 {
		t.Errorf("BestY = %g at %v, want near 0 (found the finite basin)", res.BestY, res.BestX)
	}
}

// wavy is a cheap multimodal objective: a sine ripple on a shifted bowl.
func wavy(x []float64) float64 {
	s := 0.0
	for i, v := range x {
		d := v - 0.3*float64(i)
		s += math.Sin(3*v) - 0.5*d*d
	}
	return s
}

// box8 is an 8-D box with unequal sides, the dimension of the sizing
// backends' parameter spaces.
func box8() (lo, hi []float64) {
	lo, hi = make([]float64, 8), make([]float64, 8)
	for i := range lo {
		lo[i], hi[i] = -1-0.25*float64(i), 2+float64(i)
	}
	return lo, hi
}

// historyHash is an FNV-1a hash over the Float64bits of a run's History,
// BestX and BestY.
func historyHash(r *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range r.History {
		put(v)
	}
	for _, v := range r.BestX {
		put(v)
	}
	put(r.BestY)
	return h.Sum64()
}

// TestOptimizeHistoryPinned pins three complete runs to the bit: the
// sizing-backend shape (d = 8, 15 + 45 evaluations, 256 candidates), the
// default budget (512 candidates), and the hybrid backend's shape with
// an incumbent. The hashes were recorded from the original
// one-candidate-at-a-time GP, so they hold the incremental factor and
// the batched acquisition to choosing exactly the same points.
func TestOptimizeHistoryPinned(t *testing.T) {
	lo, hi := box8()
	incumbent := Options{InitSamples: 15, Iterations: 44, Candidates: 256, Seed: 3,
		Init: []float64{0.5, 0, 1, 1.5, 2, 2.5, 3, 3.5}}
	for _, tc := range []struct {
		name  string
		p     Problem
		o     Options
		evals int
		want  uint64
	}{
		{"size_recover", Problem{Lo: lo, Hi: hi, Eval: wavy},
			Options{InitSamples: 15, Iterations: 45, Candidates: 256, Seed: 11}, 60, 0x35bdeff682df54ae},
		{"default", Problem{Lo: []float64{-5, -5, -5}, Hi: []float64{5, 5, 5}, Eval: wavy},
			DefaultOptions(5), 52, 0x1dba999b10fa092e},
		{"incumbent", Problem{Lo: lo, Hi: hi, Eval: wavy}, incumbent, 60, 0x4153d34b049dcfc8},
	} {
		res, err := Optimize(context.Background(), tc.p, tc.o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Evals != tc.evals {
			t.Errorf("%s: Evals = %d, want %d", tc.name, res.Evals, tc.evals)
		}
		if got := historyHash(res); got != tc.want {
			t.Errorf("%s: history hash %#x, want %#x (BestY %v)", tc.name, got, tc.want, res.BestY)
		}
	}
}

// sizeRecoverOptions is the bo backend's budget for a 60-evaluation
// trial: 15 Latin-hypercube samples, 45 acquisition iterations.
func sizeRecoverOptions(seed int64) Options {
	return Options{InitSamples: 15, Iterations: 45, Candidates: 256, Seed: seed}
}

// TestOptimizeAllocsIndependentOfCandidates guards the acquisition loop:
// every buffer is sized once per run, so the allocation count of a run
// must not depend on how many candidates each iteration scores.
func TestOptimizeAllocsIndependentOfCandidates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	// A collection during the longer run can add a runtime-internal
	// allocation to the count; with the collector off the count is the
	// optimizer's own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	lo, hi := box8()
	p := Problem{Lo: lo, Hi: hi, Eval: wavy}
	allocs := func(c int) float64 {
		o := sizeRecoverOptions(4)
		o.Candidates = c
		return testing.AllocsPerRun(3, func() {
			if _, err := Optimize(context.Background(), p, o); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(16), allocs(512); few != many {
		t.Errorf("allocations per run: %v at 16 candidates, %v at 512", few, many)
	}
}

// BenchmarkOptimize is one bo-backend trial's optimizer work with a
// cheap analytic objective in place of the circuit simulator, so it
// times the GP and the acquisition loop alone.
func BenchmarkOptimize(b *testing.B) {
	lo, hi := box8()
	p := Problem{Lo: lo, Hi: hi, Eval: wavy}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(context.Background(), p, sizeRecoverOptions(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
