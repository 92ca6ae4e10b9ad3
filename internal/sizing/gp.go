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
	ks      []float64 // candidate-major cross-covariances, then L⁻¹k*
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

// predict writes the posterior mean and standard deviation, in the
// original target units, of each of the len(mu) candidates stored
// row-major in cands. Each candidate's arithmetic runs in the same order
// as a one-point-at-a-time prediction, so the results are bit-identical
// to it; only the interleaving across candidates differs.
func (g *gp) predict(cands, mu, sd []float64) {
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
	// v = L⁻¹k*, in place. Four candidates per pass share every load of
	// L across four independent dependency chains; a one-candidate loop
	// takes the remainder.
	c := 0
	for ; c+4 <= len(mu); c += 4 {
		g.solve4(ks[c*n:(c+4)*n], n)
	}
	for ; c < len(mu); c++ {
		g.forward(ks[c*n : (c+1)*n])
	}
	for c := range sd {
		var2 := g.sigF2 + g.sigN2
		for _, vi := range ks[c*n : (c+1)*n] {
			var2 -= vi * vi
		}
		if var2 < 1e-12 {
			var2 = 1e-12
		}
		sd[c] = math.Sqrt(var2) * g.std
	}
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

// solve4 is forward on four consecutive length-n rows of k at once.
func (g *gp) solve4(k []float64, n int) {
	v0, v1, v2, v3 := k[:n], k[n:2*n], k[2*n:3*n], k[3*n:4*n]
	for i := 0; i < n; i++ {
		li := g.l[i*(i+1)/2 : i*(i+1)/2+i+1]
		s0, s1, s2, s3 := v0[i], v1[i], v2[i], v3[i]
		a0, a1, a2, a3 := v0[:i], v1[:i], v2[:i], v3[:i]
		for j, lij := range li[:i] {
			s0 -= lij * a0[j]
			s1 -= lij * a1[j]
			s2 -= lij * a2[j]
			s3 -= lij * a3[j]
		}
		p := li[i]
		v0[i], v1[i], v2[i], v3[i] = s0/p, s1/p, s2/p, s3/p
	}
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
