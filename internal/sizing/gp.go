// Package sizing implements the parameter-tuning tool of the Artisan
// workflow (Fig. 2) and the inner loop of the black-box baselines: a
// Gaussian-process Bayesian optimizer (Lyu et al. [14]) with an RBF
// kernel, expected-improvement acquisition, Latin-hypercube
// initialization, plus a Nelder–Mead simplex refiner.
package sizing

import (
	"math"
	"math/rand"
)

// choleskyAttempts bounds the jitter escalation: the kernel is factored
// with jitter 0, then 1e-10, then ×100 per further attempt.
const choleskyAttempts = 6

// gp is a Gaussian-process regressor over the unit hypercube with an RBF
// kernel. The hyperparameters are fixed, so the kernel matrix only gains
// a row per observation: add extends the Cholesky factor by that row, and
// fit re-standardizes the targets and re-solves α in O(n²). One gp lives
// for a whole optimization run; every buffer is sized up front for the
// run's maximum observation count and candidate pool.
type gp struct {
	d, n  int
	ell   float64   // lengthscale
	sigF2 float64   // signal variance
	sigN2 float64   // noise variance
	x     []float64 // n×d training inputs (normalized), row-major
	y     []float64 // observed targets
	mean  float64
	std   float64
	// l is the lower Cholesky factor of K + jitter·I, packed by rows:
	// row i starts at offset i(i+1)/2.
	l       []float64
	jitter  float64
	attempt int  // position of jitter in the escalation sequence
	broken  bool // no jitter in the sequence factors the kernel
	alpha   []float64
	ks      []float64 // candidate-major cross-covariances; sd solves in place
}

// newGP sizes a regressor for at most nmax observations in d dimensions
// and prediction batches of at most cmax candidates.
func newGP(d, nmax, cmax int) *gp {
	return &gp{
		d: d, ell: 0.3, sigF2: 1.0, sigN2: 1e-4,
		x:     make([]float64, nmax*d),
		y:     make([]float64, nmax),
		l:     make([]float64, nmax*(nmax+1)/2),
		alpha: make([]float64, nmax),
		ks:    make([]float64, cmax*nmax),
	}
}

func rbf(a, b []float64, ell, sigF2 float64) float64 {
	d2 := 0.0
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return sigF2 * math.Exp(-0.5*d2/(ell*ell))
}

func (g *gp) row(i int) []float64 { return g.x[i*g.d : (i+1)*g.d] }

// add records observation (u, y) and extends the factor by its row. A
// failed pivot escalates the jitter and refactors every row, so the
// factor always equals a from-scratch Cholesky–Banachiewicz factorization
// at the smallest jitter of the sequence that succeeds on all rows.
func (g *gp) add(u []float64, y float64) {
	copy(g.row(g.n), u)
	g.y[g.n] = y
	g.n++
	if g.broken {
		return
	}
	ok := g.factorRow(g.n - 1)
	for !ok && g.attempt < choleskyAttempts-1 {
		g.attempt++
		if g.jitter == 0 {
			g.jitter = 1e-10
		} else {
			g.jitter *= 100
		}
		ok = true
		for i := 0; i < g.n && ok; i++ {
			ok = g.factorRow(i)
		}
	}
	g.broken = !ok
}

// factorRow computes row i of the factor from rows 0..i-1, reporting
// false when the pivot is not positive.
func (g *gp) factorRow(i int) bool {
	xi := g.row(i)
	li := g.l[i*(i+1)/2 : (i+1)*(i+2)/2]
	for j := 0; j <= i; j++ {
		lj := g.l[j*(j+1)/2 : (j+1)*(j+2)/2]
		sum := rbf(xi, g.row(j), g.ell, g.sigF2)
		if i == j {
			sum += g.sigN2
			sum += g.jitter
		}
		for k := 0; k < j; k++ {
			sum -= li[k] * lj[k]
		}
		if i == j {
			if sum <= 0 {
				return false
			}
			li[i] = math.Sqrt(sum)
		} else {
			li[j] = sum / lj[j]
		}
	}
	return true
}

// fit standardizes the targets and solves (L Lᵀ) α = y. The factor must
// not be broken.
func (g *gp) fit() {
	n := g.n
	y := g.y[:n]
	g.mean, g.std = 0, 0
	for _, v := range y {
		g.mean += v
	}
	g.mean /= float64(n)
	for _, v := range y {
		g.std += (v - g.mean) * (v - g.mean)
	}
	g.std = math.Sqrt(g.std/float64(n)) + 1e-12
	a := g.alpha[:n]
	for i, v := range y {
		a[i] = (v - g.mean) / g.std
	}
	// Forward then back substitution, both in place.
	g.forward(a)
	for i := n - 1; i >= 0; i-- {
		s := a[i]
		for j := i + 1; j < n; j++ {
			s -= g.l[j*(j+1)/2+i] * a[j]
		}
		a[i] = s / g.l[i*(i+1)/2+i]
	}
}

// means writes the posterior mean, in the original target units, of each
// of the len(mu) candidates stored row-major in cands, and leaves each
// candidate's cross-covariance row k* in ks for sd. Each candidate's
// arithmetic runs in the same order as a one-point-at-a-time
// prediction, so the results are bit-identical to it.
func (g *gp) means(cands, mu []float64) {
	n, d := g.n, g.d
	ks := g.ks[:len(mu)*n]
	alpha := g.alpha[:n]
	ell2 := g.ell * g.ell
	for c := range mu {
		xq := cands[c*d : (c+1)*d]
		k := ks[c*n : (c+1)*n]
		// rbf(g.row(i), xq), split in two passes: the squared distances
		// first, free of calls, then the exponentials.
		for i := range k {
			xi := g.x[i*d : i*d+len(xq)]
			d2 := 0.0
			for j, q := range xq {
				t := xi[j] - q
				d2 += t * t
			}
			k[i] = d2
		}
		m := 0.0
		for i, d2 := range k {
			k[i] = g.sigF2 * math.Exp(-0.5*d2/ell2)
			m += k[i] * alpha[i]
		}
		mu[c] = m*g.std + g.mean
	}
}

// sd returns the posterior standard deviation, in the original target
// units, of candidate c of the last means call. It solves L·v = k* in
// place of c's row, so it may be called once per candidate.
func (g *gp) sd(c int) float64 {
	n := g.n
	v := g.ks[c*n : (c+1)*n]
	g.forward(v)
	var2 := g.sigF2 + g.sigN2
	for _, vi := range v {
		var2 -= vi * vi
	}
	if var2 < 1e-12 {
		var2 = 1e-12
	}
	return math.Sqrt(var2) * g.std
}

// forward solves L·v = b in place, b being v's contents on entry.
func (g *gp) forward(v []float64) {
	for i := range v {
		li := g.l[i*(i+1)/2:]
		s := v[i]
		for j, vj := range v[:i] {
			s -= li[j] * vj
		}
		v[i] = s / li[i]
	}
}

// eiMargin is the slack, in units of |μ − best| + σ_max, that acquire's
// ceiling adds for rounding: normCDF carries an absolute error near
// 2⁻⁵³ and every other step a few ulps, so a computed EI strays from
// the exact one by far less than 1e-12 of that scale.
const eiMargin = 1e-12

// acquire returns the first candidate of maximal expected improvement
// over best among the candidates of the last means call, or -1 when no
// EI exceeds −Inf: the pick of scoring every candidate, first strict
// maximum winning. It also reports the number of σ solves.
//
// σ never exceeds the prior σ_max = √(σf²+σn²)·std: sd's variance starts
// at σf²+σn² and only loses squares, and rounding, the clamp far below
// σf², Sqrt and the product with std are all monotone. EI grows with σ
// (∂EI/∂σ = φ(z) > 0), so EI(μ, σ_max) plus the margin is a ceiling
// (kept in ceil) on a candidate's computed EI. acquire solves for σ
// first at the highest ceiling, then in index order wherever the
// ceiling is at least that EI and the running best. A tie therefore
// still goes to the lower index, and a NaN ceiling, whose exact EI would
// be NaN too, is skipped.
func (g *gp) acquire(mu, ceil []float64, best float64) (pick, solves int) {
	sdMax := math.Sqrt(g.sigF2+g.sigN2) * g.std
	top, topCeil := -1, math.Inf(-1)
	for c, m := range mu {
		ceil[c] = expectedImprovement(m, sdMax, best) + eiMargin*(math.Abs(m-best)+sdMax)
		if ceil[c] > topCeil {
			top, topCeil = c, ceil[c]
		}
	}
	if top < 0 {
		return -1, 0
	}
	eiTop := expectedImprovement(mu[top], g.sd(top), best)
	solves = 1
	floor := eiTop
	if math.IsNaN(floor) {
		floor = math.Inf(-1)
	}
	pick, bestEI := -1, math.Inf(-1)
	for c, cu := range ceil {
		if !(cu >= floor && cu >= bestEI) {
			continue
		}
		ei := eiTop
		if c != top {
			ei = expectedImprovement(mu[c], g.sd(c), best)
			solves++
		}
		if ei > bestEI {
			pick, bestEI = c, ei
		}
	}
	return pick, solves
}

// expectedImprovement for maximization.
func expectedImprovement(mu, sd, best float64) float64 {
	if sd <= 0 {
		return 0
	}
	z := (mu - best) / sd
	return (mu-best)*normCDF(z) + sd*normPDF(z)
}

func normPDF(z float64) float64 { return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi) }
func normCDF(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }

// latinHypercube draws n stratified points in [0,1]^d.
func latinHypercube(n, d int, rng *rand.Rand) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
	}
	for j := 0; j < d; j++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			pts[i][j] = (float64(perm[i]) + rng.Float64()) / float64(n)
		}
	}
	return pts
}
