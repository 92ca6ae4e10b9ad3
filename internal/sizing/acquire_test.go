package sizing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The acquisition oracle: acquire solves for σ only where a candidate's
// expected-improvement ceiling can reach the best EI seen, and must pick
// exactly the candidate that scoring every candidate picks.

// exhaustivePick scores every candidate of the last means call and
// returns the first strict maximum of expected improvement, or -1 when
// none exceeds −Inf: the BO loop's pick before acquire bounded it.
func exhaustivePick(g *gp, mu []float64, best float64) int {
	pick, bestEI := -1, math.Inf(-1)
	for c := range mu {
		if ei := expectedImprovement(mu[c], g.sd(c), best); ei > bestEI {
			pick, bestEI = c, ei
		}
	}
	return pick
}

// checkAcquire scores the pool both ways and fails unless the picks
// agree. It returns acquire's σ solves.
func checkAcquire(t *testing.T, tag string, g *gp, cands []float64, best float64) int {
	t.Helper()
	c := len(cands) / g.d
	mu, ceil := make([]float64, c), make([]float64, c)
	g.means(cands, mu)
	got, solves := g.acquire(mu, ceil, best)
	if solves > c {
		t.Fatalf("%s: %d σ solves for %d candidates", tag, solves, c)
	}
	g.means(cands, mu) // the σ solves consumed the kernel rows
	if want := exhaustivePick(g, mu, best); got != want {
		t.Fatalf("%s: bounded pick %d, exhaustive pick %d (of %d)", tag, got, want, c)
	}
	return solves
}

// acqCase shapes a seeded GP state and candidate pool.
type acqCase struct {
	n, d, c   int
	constant  bool // every objective value 7
	nonFinite bool // some values are the optimizer's sanitized stand-ins
	atBound   bool // the incumbent sits at the lower bound, so clamped moves repeat it
	identical bool // every candidate is the same point
}

// build fits a GP to the case's observations, drawn from rng, and draws
// a pool as Optimize does: every third candidate a Gaussian move of the
// incumbent clamped to the cube, the rest uniform. It returns nil when
// no jitter factors the kernel (Optimize then explores at random).
func (k acqCase) build(rng *rand.Rand) (g *gp, cands []float64, best float64) {
	g = newGP(k.d, k.n, k.c)
	best, worst := math.Inf(-1), math.Inf(1)
	for i := 0; i < k.n; i++ {
		u := make([]float64, k.d)
		for j := range u {
			u[j] = rng.Float64()
		}
		y := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		switch {
		case k.constant:
			y = 7
		case k.nonFinite && rng.Intn(4) == 0:
			// Optimize's sanitize: -1e6 before any finite value, then
			// one below the worst finite value.
			if i == 0 {
				y = -1e6
			} else {
				y = worst - 1
			}
		}
		if k.atBound && i == 0 {
			for j := range u {
				u[j] = 0
			}
			y = math.Abs(y) + 10 // the incumbent
			if k.constant {
				y = 7
			}
		}
		best, worst = math.Max(best, y), math.Min(worst, y)
		g.add(u, y)
	}
	if g.broken {
		return nil, nil, 0
	}
	g.fit()
	inc := g.row(argmax(g.y[:g.n]))
	cands = make([]float64, k.c*k.d)
	for c := 0; c < k.c; c++ {
		u := cands[c*k.d : (c+1)*k.d]
		switch {
		case k.identical && c > 0:
			copy(u, cands[:k.d])
		case c%3 == 0:
			for j := range u {
				u[j] = clamp01(inc[j] + rng.NormFloat64()*0.08)
			}
		default:
			for j := range u {
				u[j] = rng.Float64()
			}
		}
	}
	return g, cands, best
}

// TestAcquireMatchesExhaustive compares the bounded pick with the
// exhaustive one over seeded GP states: general problems, forced ties
// (d = 1 with the incumbent at a bound, so clamped moves repeat a point,
// alone and with a constant objective), pools of one repeated
// candidate, constant objectives and sanitized non-finite values. It
// also requires the bound to skip most σ solves on the general states.
func TestAcquireMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shapes := []struct {
		name string
		k    func() acqCase
	}{
		{"general", func() acqCase { return acqCase{n: 2 + rng.Intn(60), d: 1 + rng.Intn(9), c: 16 + rng.Intn(300)} }},
		{"tie-at-bound", func() acqCase { return acqCase{n: 2 + rng.Intn(30), d: 1, c: 64 + rng.Intn(200), atBound: true} }},
		{"tie-constant", func() acqCase {
			return acqCase{n: 2 + rng.Intn(30), d: 1, c: 64 + rng.Intn(200), atBound: true, constant: true}
		}},
		{"identical", func() acqCase {
			return acqCase{n: 2 + rng.Intn(40), d: 1 + rng.Intn(9), c: 16 + rng.Intn(64), identical: true}
		}},
		{"constant", func() acqCase {
			return acqCase{n: 2 + rng.Intn(40), d: 1 + rng.Intn(9), c: 16 + rng.Intn(300), constant: true}
		}},
		{"non-finite", func() acqCase {
			return acqCase{n: 2 + rng.Intn(40), d: 1 + rng.Intn(9), c: 16 + rng.Intn(300), nonFinite: true}
		}},
	}
	for _, sh := range shapes {
		solves, cands := 0, 0
		for trial := 0; trial < 150; trial++ {
			k := sh.k()
			g, pool, best := k.build(rng)
			if g == nil {
				continue
			}
			tag := fmt.Sprintf("%s trial %d (n=%d d=%d C=%d)", sh.name, trial, k.n, k.d, k.c)
			solves += checkAcquire(t, tag, g, pool, best)
			cands += k.c
		}
		if sh.name == "general" && 2*solves > cands {
			t.Errorf("general states: %d σ solves for %d candidates; the bound should skip most", solves, cands)
		}
	}
}

// FuzzAcquire drives the same comparison over fuzzed GP states: the
// seed draws the observations and the pool, the other arguments shape
// them (observation count, dimension, pool size and a flag byte for the
// constant, non-finite, at-bound and identical-pool cases), and the
// incumbent offset moves the value EI is measured against.
func FuzzAcquire(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3), uint16(256), uint8(0), 0.0)
	f.Add(int64(2), uint8(8), uint8(1), uint16(200), uint8(4), 0.0)
	f.Add(int64(3), uint8(8), uint8(1), uint16(100), uint8(5), 0.0)
	f.Add(int64(4), uint8(30), uint8(5), uint16(64), uint8(8), 0.0)
	f.Add(int64(5), uint8(30), uint8(5), uint16(300), uint8(2), 1e3)
	f.Fuzz(func(t *testing.T, seed int64, n, d uint8, c uint16, flags uint8, offset float64) {
		k := acqCase{n: 1 + int(n)%80, d: 1 + int(d)%9, c: 1 + int(c)%512,
			constant: flags&1 != 0, nonFinite: flags&2 != 0, atBound: flags&4 != 0, identical: flags&8 != 0}
		g, pool, best := k.build(rand.New(rand.NewSource(seed)))
		if g == nil {
			return
		}
		checkAcquire(t, fmt.Sprintf("%+v offset %g", k, offset), g, pool, best+offset)
	})
}
