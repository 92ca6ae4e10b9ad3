package sizing

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"artisan/internal/telemetry"
)

// Problem is a bounded maximization problem. Eval may be expensive (one
// circuit simulation per call in this repository).
type Problem struct {
	Lo, Hi []float64
	Eval   func(x []float64) float64
}

// Options controls the optimizer budget.
type Options struct {
	InitSamples int // Latin-hypercube evaluations before the GP loop
	Iterations  int // BO iterations (one evaluation each)
	Candidates  int // acquisition candidates per iteration
	Seed        int64
	// Init, when non-nil, is a caller-supplied incumbent in the problem's
	// real coordinate space. It is evaluated first — before the
	// Latin-hypercube phase — so a caller with an analytic seed (the
	// white-box gm/Id engine) spends one evaluation installing it instead
	// of hoping the random design rediscovers it. Must lie within
	// [Lo, Hi]; it adds one evaluation to the run.
	Init []float64
}

// DefaultOptions is a modest budget suitable for behavioral simulation.
func DefaultOptions(seed int64) Options {
	return Options{InitSamples: 12, Iterations: 40, Candidates: 512, Seed: seed}
}

// Result reports the best point found and the evaluation history.
type Result struct {
	BestX   []float64
	BestY   float64
	Evals   int
	History []float64 // best-so-far after each evaluation
}

func (p Problem) dim() int { return len(p.Lo) }

func (p Problem) validate() error {
	if len(p.Lo) == 0 || len(p.Lo) != len(p.Hi) {
		return fmt.Errorf("sizing: bounds length mismatch (%d vs %d)", len(p.Lo), len(p.Hi))
	}
	for i := range p.Lo {
		if !(p.Lo[i] < p.Hi[i]) || math.IsInf(p.Lo[i], 0) || math.IsInf(p.Hi[i], 0) {
			return fmt.Errorf("sizing: bad bounds in dim %d: [%g, %g]", i, p.Lo[i], p.Hi[i])
		}
	}
	if p.Eval == nil {
		return fmt.Errorf("sizing: nil objective")
	}
	return nil
}

// denorm maps the unit-cube point u into x, in the problem's coordinates.
func (p Problem) denorm(x, u []float64) {
	for i := range u {
		x[i] = p.Lo[i] + u[i]*(p.Hi[i]-p.Lo[i])
	}
}

// Optimize runs GP-based Bayesian optimization (maximization). The run
// emits telemetry spans ("sizing.optimize" with "sizing.init" and
// "sizing.bo" children) when the context carries a tracer, and a
// cancelled context stops the BO loop at the next iteration boundary,
// returning the best point found so far alongside the context's error.
func Optimize(ctx context.Context, p Problem, o Options) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	ctx, span := telemetry.StartSpan(ctx, "sizing.optimize")
	defer span.End()
	if o.InitSamples < 2 {
		o.InitSamples = 2
	}
	if o.Candidates < 16 {
		o.Candidates = 16
	}
	rng := rand.New(rand.NewSource(o.Seed))
	d := p.dim()
	if o.Init != nil {
		if len(o.Init) != d {
			return nil, fmt.Errorf("sizing: incumbent dimension %d, want %d", len(o.Init), d)
		}
		for i, v := range o.Init {
			if !(v >= p.Lo[i] && v <= p.Hi[i]) {
				return nil, fmt.Errorf("sizing: incumbent[%d]=%g outside [%g, %g]", i, v, p.Lo[i], p.Hi[i])
			}
		}
	}

	// One GP serves the whole run, sized for every evaluation it will see.
	nmax := o.InitSamples + max(o.Iterations, 0)
	if o.Init != nil {
		nmax++
	}
	g := newGP(d, nmax, o.Candidates)
	res := &Result{BestY: math.Inf(-1), History: make([]float64, 0, nmax)}
	// A single non-finite objective value would poison the GP
	// standardization (NaN mean/std make every EI comparison false, so no
	// candidate ever wins). Clamp NaN/±Inf to just below the worst finite
	// value seen, so the model merely ranks the point last.
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
	// record evaluates u and adds it to the GP, which copies it: callers
	// may reuse their buffer.
	record := func(u []float64) {
		x := make([]float64, d) // the objective may retain its argument
		p.denorm(x, u)
		y := sanitize(p.Eval(x))
		g.add(u, y)
		res.Evals++
		if y > res.BestY {
			res.BestY = y
			if res.BestX == nil {
				res.BestX = make([]float64, d)
			}
			p.denorm(res.BestX, u)
		}
		res.History = append(res.History, res.BestY)
	}
	defer func() { span.SetAttr("evals", fmt.Sprintf("%d", res.Evals)) }()

	_, initSpan := telemetry.StartSpan(ctx, "sizing.init")
	if o.Init != nil {
		// The incumbent leads the history, so it seeds the GP and the
		// Gaussian exploitation moves of every BO iteration.
		u := make([]float64, d)
		for i, v := range o.Init {
			u[i] = (v - p.Lo[i]) / (p.Hi[i] - p.Lo[i])
		}
		record(u)
		initSpan.SetAttr("incumbent", "1")
	}
	for _, u := range latinHypercube(o.InitSamples, d, rng) {
		record(u)
	}
	initSpan.End()

	_, boSpan := telemetry.StartSpan(ctx, "sizing.bo")
	defer boSpan.End()
	// Each iteration draws its whole candidate pool, then scores it in
	// one batched prediction: prediction consumes no randomness, so the
	// rng sequence is that of drawing and scoring one candidate at a time.
	cands := make([]float64, o.Candidates*d)
	mu := make([]float64, o.Candidates)
	sd := make([]float64, o.Candidates)
	randomPoint := func() []float64 {
		u := cands[:d]
		for i := range u {
			u[i] = rng.Float64()
		}
		return u
	}
	for it := 0; it < o.Iterations; it++ {
		if err := ctx.Err(); err != nil {
			boSpan.SetAttr("cancelled", err.Error())
			return res, err
		}
		if g.broken {
			// Degenerate model (no jitter factors the kernel): fall back
			// to random exploration rather than aborting the tuning run.
			record(randomPoint())
			continue
		}
		g.fit()
		// Candidate pool: uniform + Gaussian perturbations of the
		// incumbent (local exploitation).
		bestU := g.row(argmax(g.y[:g.n]))
		for c := 0; c < o.Candidates; c++ {
			u := cands[c*d : (c+1)*d]
			if c%3 == 0 {
				for i := range u {
					u[i] = clamp01(bestU[i] + rng.NormFloat64()*0.08)
				}
			} else {
				for i := range u {
					u[i] = rng.Float64()
				}
			}
		}
		g.predict(cands, mu, sd)
		best, bestEI := -1, math.Inf(-1)
		for c := range mu {
			if ei := expectedImprovement(mu[c], sd[c], res.BestY); ei > bestEI {
				best, bestEI = c, ei
			}
		}
		if best < 0 {
			// No candidate won (EI degenerate everywhere): evaluate a
			// random point instead.
			record(randomPoint())
			continue
		}
		record(cands[best*d : (best+1)*d])
	}
	return res, nil
}

func argmax(ys []float64) int {
	bi, bv := 0, math.Inf(-1)
	for i, v := range ys {
		if v > bv {
			bi, bv = i, v
		}
	}
	return bi
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// NelderMead runs a bounded simplex maximization from x0 for maxIter
// iterations; it is the local refiner used after BO.
func NelderMead(p Problem, x0 []float64, maxIter int) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	d := p.dim()
	if len(x0) != d {
		return nil, fmt.Errorf("sizing: start point dimension %d, want %d", len(x0), d)
	}
	clampX := func(x []float64) []float64 {
		c := make([]float64, d)
		for i := range x {
			c[i] = math.Max(p.Lo[i], math.Min(p.Hi[i], x[i]))
		}
		return c
	}
	res := &Result{BestY: math.Inf(-1)}
	eval := func(x []float64) float64 {
		x = clampX(x)
		y := p.Eval(x)
		res.Evals++
		if y > res.BestY {
			res.BestY = y
			res.BestX = append([]float64(nil), x...)
		}
		res.History = append(res.History, res.BestY)
		return y
	}

	// Initial simplex: x0 plus per-dimension steps of 5% of range.
	pts := make([][]float64, d+1)
	ys := make([]float64, d+1)
	pts[0] = clampX(x0)
	ys[0] = eval(pts[0])
	for i := 0; i < d; i++ {
		v := append([]float64(nil), pts[0]...)
		v[i] += 0.05 * (p.Hi[i] - p.Lo[i])
		pts[i+1] = clampX(v)
		ys[i+1] = eval(pts[i+1])
	}

	for it := 0; it < maxIter; it++ {
		// order descending (maximization: best first)
		for i := 0; i < len(ys); i++ {
			for j := i + 1; j < len(ys); j++ {
				if ys[j] > ys[i] {
					ys[i], ys[j] = ys[j], ys[i]
					pts[i], pts[j] = pts[j], pts[i]
				}
			}
		}
		// centroid of all but worst
		cen := make([]float64, d)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				cen[i] += pts[j][i]
			}
			cen[i] /= float64(d)
		}
		worst := pts[d]
		refl := make([]float64, d)
		for i := range refl {
			refl[i] = cen[i] + (cen[i] - worst[i])
		}
		yr := eval(refl)
		switch {
		case yr > ys[0]:
			exp := make([]float64, d)
			for i := range exp {
				exp[i] = cen[i] + 2*(cen[i]-worst[i])
			}
			if ye := eval(exp); ye > yr {
				pts[d], ys[d] = exp, ye
			} else {
				pts[d], ys[d] = refl, yr
			}
		case yr > ys[d-1]:
			pts[d], ys[d] = refl, yr
		default:
			con := make([]float64, d)
			for i := range con {
				con[i] = cen[i] + 0.5*(worst[i]-cen[i])
			}
			if yc := eval(con); yc > ys[d] {
				pts[d], ys[d] = con, yc
			} else {
				// shrink toward best
				for j := 1; j <= d; j++ {
					for i := 0; i < d; i++ {
						pts[j][i] = pts[0][i] + 0.5*(pts[j][i]-pts[0][i])
					}
					ys[j] = eval(pts[j])
				}
			}
		}
	}
	return res, nil
}
