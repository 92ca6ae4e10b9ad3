package sizing

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file keeps the original one-point-at-a-time GP — a fresh kernel
// matrix and Cholesky factor per fit, one forward solve per prediction —
// as the oracle for the incremental gp and its batched mean pass. The optimizer's goldens
// depend on the two agreeing to the last bit.

// scalarGP is the reference regressor, fitted from scratch by fitGP.
type scalarGP struct {
	x     [][]float64 // training inputs (normalized)
	y     []float64   // standardized targets
	mean  float64
	std   float64
	ell   float64 // lengthscale
	sigF2 float64 // signal variance
	sigN2 float64 // noise variance
	chol  [][]float64
	alpha []float64
}

// fitGP trains the regressor; y is standardized internally.
func fitGP(x [][]float64, y []float64) (*scalarGP, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("sizing: bad training set (%d inputs, %d targets)", n, len(y))
	}
	g := &scalarGP{x: x, ell: 0.3, sigF2: 1.0, sigN2: 1e-4}
	// standardize
	for _, v := range y {
		g.mean += v
	}
	g.mean /= float64(n)
	for _, v := range y {
		g.std += (v - g.mean) * (v - g.mean)
	}
	g.std = math.Sqrt(g.std/float64(n)) + 1e-12
	g.y = make([]float64, n)
	for i, v := range y {
		g.y[i] = (v - g.mean) / g.std
	}
	chol, err := cholesky(kernelMatrix(x, g.ell, g.sigF2, g.sigN2))
	if err != nil {
		return nil, err
	}
	g.chol = chol
	g.alpha = cholSolve(chol, g.y)
	return g, nil
}

// kernelMatrix is the full n×n matrix K + σn²·I over the inputs x.
func kernelMatrix(x [][]float64, ell, sigF2, sigN2 float64) [][]float64 {
	k := make([][]float64, len(x))
	for i := range k {
		k[i] = make([]float64, len(x))
		for j := range k[i] {
			k[i][j] = rbf(x[i], x[j], ell, sigF2)
		}
		k[i][i] += sigN2
	}
	return k
}

// predict returns the posterior mean and standard deviation at xq, in the
// original target units.
func (g *scalarGP) predict(xq []float64) (mu, sd float64) {
	n := len(g.x)
	kstar := make([]float64, n)
	for i := range kstar {
		kstar[i] = rbf(g.x[i], xq, g.ell, g.sigF2)
	}
	m := 0.0
	for i := range kstar {
		m += kstar[i] * g.alpha[i]
	}
	// v = L⁻¹ k*
	v := forwardSolve(g.chol, kstar)
	var2 := g.sigF2 + g.sigN2
	for _, vi := range v {
		var2 -= vi * vi
	}
	if var2 < 1e-12 {
		var2 = 1e-12
	}
	return m*g.std + g.mean, math.Sqrt(var2) * g.std
}

// cholesky returns the lower-triangular factor of a symmetric
// positive-definite matrix, adding jitter on near-singularity.
func cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	jitter := 0.0
	for attempt := 0; attempt < 6; attempt++ {
		ok := true
		for i := 0; i < n && ok; i++ {
			for j := 0; j <= i; j++ {
				sum := a[i][j]
				if i == j {
					sum += jitter
				}
				for k := 0; k < j; k++ {
					sum -= l[i][k] * l[j][k]
				}
				if i == j {
					if sum <= 0 {
						ok = false
						break
					}
					l[i][i] = math.Sqrt(sum)
				} else {
					l[i][j] = sum / l[j][j]
				}
			}
		}
		if ok {
			return l, nil
		}
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 100
		}
	}
	return nil, fmt.Errorf("sizing: kernel matrix not positive definite even with jitter")
}

func forwardSolve(l [][]float64, b []float64) []float64 {
	n := len(l)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l[i][j] * x[j]
		}
		x[i] = s / l[i][i]
	}
	return x
}

func backSolve(l [][]float64, b []float64) []float64 {
	n := len(l)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= l[j][i] * x[j]
		}
		x[i] = s / l[i][i]
	}
	return x
}

// cholSolve solves (L Lᵀ) x = b.
func cholSolve(l [][]float64, b []float64) []float64 {
	return backSolve(l, forwardSolve(l, b))
}

// sameBits reports whether a and b are the same float64, NaNs included.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkFactor asserts that g's packed factor is bit-identical to the
// oracle's from-scratch factor of the same kernel, or that both fail.
func checkFactor(t *testing.T, tag string, g *gp, xs [][]float64) {
	t.Helper()
	l, err := cholesky(kernelMatrix(xs, g.ell, g.sigF2, g.sigN2))
	if (err != nil) != g.broken {
		t.Fatalf("%s: oracle error %v, incremental broken=%v", tag, err, g.broken)
	}
	if err != nil {
		return
	}
	for i := range l {
		for j := 0; j <= i; j++ {
			if got := g.l[i*(i+1)/2+j]; !sameBits(got, l[i][j]) {
				t.Fatalf("%s: L[%d][%d] = %v, oracle %v", tag, i, j, got, l[i][j])
			}
		}
	}
}

// TestGPMatchesScalarOracle drives the incremental factor and the
// two-step prediction (means over the pool, then sd per candidate) over
// seeded random problems — n = 1–80 observations, d = 1–9, C = 1–300
// candidates — and requires the factor, α and every candidate's (μ, σ)
// to equal the scalar oracle's bit for bit. Observations arrive one at a time and the
// model is checked at several sizes, as in an optimization run.
func TestGPMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20240601))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(80)
		d := 1 + rng.Intn(9)
		cmax := 1 + rng.Intn(300)
		if trial < 8 {
			cmax = 1 + trial // small pools
		}
		g := newGP(d, n, cmax)
		xs := make([][]float64, 0, n)
		ys := make([]float64, 0, n)
		constant := trial%10 == 3
		for i := 0; i < n; i++ {
			u := make([]float64, d)
			for k := range u {
				switch r := rng.Float64(); {
				case r < 0.05:
					u[k] = 0 // clamped to a bound, as exploitation moves are
				case r < 0.1 && i > 0:
					u[k] = xs[rng.Intn(i)][k] // shared coordinate
				default:
					u[k] = rng.Float64()
				}
			}
			y := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			if constant {
				y = 7
			} else if rng.Intn(20) == 0 {
				y = -1e6 // the sanitized stand-in for a non-finite objective
			}
			xs = append(xs, u)
			ys = append(ys, y)
			g.add(u, y)
			if i+1 != n && rng.Intn(8) != 0 {
				continue
			}
			tag := fmt.Sprintf("trial %d (n=%d d=%d)", trial, i+1, d)
			checkFactor(t, tag, g, xs)
			ref, err := fitGP(xs, ys)
			if err != nil {
				t.Fatalf("%s: oracle fit: %v", tag, err)
			}
			g.fit()
			if !sameBits(g.mean, ref.mean) || !sameBits(g.std, ref.std) {
				t.Fatalf("%s: standardization (%v, %v), oracle (%v, %v)", tag, g.mean, g.std, ref.mean, ref.std)
			}
			for k, a := range ref.alpha {
				if !sameBits(g.alpha[k], a) {
					t.Fatalf("%s: alpha[%d] = %v, oracle %v", tag, k, g.alpha[k], a)
				}
			}
			c := 1 + rng.Intn(cmax)
			cands := make([]float64, c*d)
			for k := range cands {
				cands[k] = rng.Float64()
			}
			mu := make([]float64, c)
			g.means(cands, mu)
			for k := 0; k < c; k++ {
				wm, ws := ref.predict(cands[k*d : (k+1)*d])
				if sd := g.sd(k); !sameBits(mu[k], wm) || !sameBits(sd, ws) {
					t.Fatalf("%s: candidate %d/%d (μ, σ) = (%v, %v), oracle (%v, %v)",
						tag, k, c, mu[k], sd, wm, ws)
				}
			}
		}
	}
}

// TestGPJitterEscalation forces failed pivots — a noiseless kernel over
// crowded 1-D points, and a negative noise that no jitter rescues — and
// requires the incremental factor to escalate, refactor and give up
// exactly where the from-scratch oracle does.
func TestGPJitterEscalation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sigN2  float64
		broken bool
	}{
		{"noiseless", 0, false},
		{"negative", -2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			const n = 40
			g := newGP(1, n, 1)
			g.sigN2 = tc.sigN2
			var xs [][]float64
			for i := 0; i < n; i++ {
				u := []float64{rng.Float64()}
				if i%7 == 6 {
					u[0] = xs[i-1][0] // exact duplicate
				}
				xs = append(xs, u)
				g.add(u, rng.NormFloat64())
				checkFactor(t, fmt.Sprintf("n=%d", i+1), g, xs)
			}
			if g.broken != tc.broken {
				t.Errorf("broken = %v, want %v", g.broken, tc.broken)
			}
			if !tc.broken && g.attempt == 0 {
				t.Error("noiseless kernel never escalated the jitter")
			}
		})
	}
}

// optimizeScalar is the original BO loop over the scalar GP: a fresh fit
// per iteration and one draw-then-predict per candidate.
func optimizeScalar(p Problem, o Options) {
	if o.InitSamples < 2 {
		o.InitSamples = 2
	}
	if o.Candidates < 16 {
		o.Candidates = 16
	}
	rng := rand.New(rand.NewSource(o.Seed))
	d := p.dim()
	denorm := func(u []float64) []float64 {
		x := make([]float64, d)
		p.denorm(x, u)
		return x
	}
	bestY := math.Inf(-1)
	var xs [][]float64
	var ys []float64
	worstFinite, haveFinite := 0.0, false
	sanitize := func(y float64) float64 {
		if !math.IsNaN(y) && !math.IsInf(y, 0) {
			if !haveFinite || y < worstFinite {
				worstFinite, haveFinite = y, true
			}
			return y
		}
		if haveFinite {
			return worstFinite - 1
		}
		return -1e6
	}
	record := func(u []float64) {
		u = append([]float64(nil), u...)
		y := sanitize(p.Eval(denorm(u)))
		xs = append(xs, u)
		ys = append(ys, y)
		if y > bestY {
			bestY = y
		}
	}
	if o.Init != nil {
		u := make([]float64, d)
		for i, v := range o.Init {
			u[i] = (v - p.Lo[i]) / (p.Hi[i] - p.Lo[i])
		}
		record(u)
	}
	for _, u := range latinHypercube(o.InitSamples, d, rng) {
		record(u)
	}
	cand := make([]float64, d)
	bestCand := make([]float64, d)
	for it := 0; it < o.Iterations; it++ {
		g, err := fitGP(xs, ys)
		if err != nil {
			for i := range cand {
				cand[i] = rng.Float64()
			}
			record(cand)
			continue
		}
		bestU := xs[argmax(ys)]
		haveBest := false
		bestEI := math.Inf(-1)
		for c := 0; c < o.Candidates; c++ {
			if c%3 == 0 {
				for i := range cand {
					cand[i] = clamp01(bestU[i] + rng.NormFloat64()*0.08)
				}
			} else {
				for i := range cand {
					cand[i] = rng.Float64()
				}
			}
			mu, sd := g.predict(cand)
			if ei := expectedImprovement(mu, sd, bestY); ei > bestEI {
				bestEI = ei
				copy(bestCand, cand)
				haveBest = true
			}
		}
		if !haveBest {
			for i := range bestCand {
				bestCand[i] = rng.Float64()
			}
		}
		record(bestCand)
	}
}

// TestOptimizeMatchesScalarLoop runs Optimize and the original loop side
// by side over seeded random problems — d = 1–9, 16–527 candidates, with
// and without an incumbent, objectives that return NaN or ±Inf, and
// constant objectives — and requires the objective to see the same
// points and return the same values in the same order, down to the bit.
func TestOptimizeMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(9)
		lo, hi, opt := make([]float64, d), make([]float64, d), make([]float64, d)
		for i := range lo {
			lo[i] = -5 * rng.Float64()
			hi[i] = lo[i] + 0.1 + 10*rng.Float64()
			opt[i] = lo[i] + (hi[i]-lo[i])*rng.Float64()
		}
		eval := wavy
		switch trial % 4 {
		case 1:
			eval = func(x []float64) float64 { // a non-finite half-space
				if x[0] > opt[0] {
					return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[trial%3]
				}
				return sphere(opt)(x)
			}
		case 2:
			eval = func([]float64) float64 { return 7 }
		}
		o := Options{InitSamples: 2 + rng.Intn(10), Iterations: rng.Intn(25),
			Candidates: 16 + rng.Intn(512), Seed: rng.Int63()}
		if trial%3 == 0 {
			o.Init = make([]float64, d)
			for i := range o.Init {
				o.Init[i] = lo[i] + (hi[i]-lo[i])*rng.Float64()
			}
		}
		p, got := recorded(Problem{Lo: lo, Hi: hi, Eval: eval})
		if err := Optimize(context.Background(), p, o); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		p, want := recorded(Problem{Lo: lo, Hi: hi, Eval: eval})
		optimizeScalar(p, o)
		tag := fmt.Sprintf("trial %d (d=%d, %d candidates)", trial, d, o.Candidates)
		if got.evals() != want.evals() {
			t.Fatalf("%s: %d evaluations, the scalar loop %d", tag, got.evals(), want.evals())
		}
		for i, x := range got.xs {
			for k := range x {
				if !sameBits(x[k], want.xs[i][k]) {
					t.Fatalf("%s: evaluation %d at %v, the scalar loop at %v", tag, i, x, want.xs[i])
				}
			}
			if !sameBits(got.ys[i], want.ys[i]) {
				t.Fatalf("%s: evaluation %d returned %v, the scalar loop %v", tag, i, got.ys[i], want.ys[i])
			}
		}
	}
}
