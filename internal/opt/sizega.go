package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"artisan/internal/sizing"
	"artisan/internal/telemetry"
)

// SizeGA runs a real-coded genetic algorithm over a bounded sizing
// problem: tournament selection, blend (BLX-α) crossover, Gaussian
// mutation, and elitism, under a hard evaluation budget. It is the GA
// family's entry in the sizing-backend comparison — same objective and
// bounds as the BO sizer, different search dynamics.
func SizeGA(ctx context.Context, p sizing.Problem, budget int, seed int64, o GAOpts) (*sizing.Result, error) {
	if len(p.Lo) == 0 || len(p.Lo) != len(p.Hi) {
		return nil, fmt.Errorf("opt: bad bounds (%d vs %d)", len(p.Lo), len(p.Hi))
	}
	if p.Eval == nil {
		return nil, fmt.Errorf("opt: nil objective")
	}
	if budget < 8 {
		return nil, fmt.Errorf("opt: SizeGA budget %d too small", budget)
	}
	ctx, span := telemetry.StartSpan(ctx, "opt.ga")
	defer span.End()
	span.SetAttr("mode", "sizing")
	if o.Population < 4 {
		o.Population = 4
	}
	if o.Population > budget/2 {
		o.Population = budget / 2
	}
	if o.Tournament < 2 {
		o.Tournament = 2
	}
	if o.Elite < 0 || o.Elite >= o.Population {
		o.Elite = 1
	}
	d := len(p.Lo)
	rng := rand.New(rand.NewSource(seed))
	res := &sizing.Result{BestY: math.Inf(-1)}
	defer func() { span.SetAttr("evals", fmt.Sprintf("%d", res.Evals)) }()

	clamp := func(x []float64) {
		for i := range x {
			x[i] = math.Max(p.Lo[i], math.Min(p.Hi[i], x[i]))
		}
	}
	eval := func(x []float64) float64 {
		y := p.Eval(x)
		res.Evals++
		if y > res.BestY {
			res.BestY = y
			res.BestX = append([]float64(nil), x...)
		}
		res.History = append(res.History, res.BestY)
		return y
	}

	type indiv struct {
		x []float64
		y float64
	}
	pop := make([]indiv, o.Population)
	for i := range pop {
		x := make([]float64, d)
		for j := range x {
			x[j] = p.Lo[j] + rng.Float64()*(p.Hi[j]-p.Lo[j])
		}
		pop[i] = indiv{x, eval(x)}
	}

	tournament := func() indiv {
		best := pop[rng.Intn(len(pop))]
		for i := 1; i < o.Tournament; i++ {
			c := pop[rng.Intn(len(pop))]
			if c.y > best.y {
				best = c
			}
		}
		return best
	}

	const alpha = 0.4 // BLX blend factor
	for res.Evals+o.Population-o.Elite <= budget {
		if err := ctx.Err(); err != nil {
			span.SetAttr("cancelled", err.Error())
			return res, err
		}
		// Sort descending by score (small population: simple selection).
		for i := 0; i < len(pop); i++ {
			for j := i + 1; j < len(pop); j++ {
				if pop[j].y > pop[i].y {
					pop[i], pop[j] = pop[j], pop[i]
				}
			}
		}
		next := make([]indiv, 0, o.Population)
		next = append(next, pop[:o.Elite]...)
		for len(next) < o.Population && res.Evals < budget {
			child := make([]float64, d)
			if rng.Float64() < o.CrossoverP {
				a, b := tournament().x, tournament().x
				for j := range child {
					lo, hi := math.Min(a[j], b[j]), math.Max(a[j], b[j])
					w := hi - lo
					child[j] = lo - alpha*w + rng.Float64()*(w+2*alpha*w)
				}
			} else {
				copy(child, tournament().x)
				for j := range child {
					child[j] += rng.NormFloat64() * 0.15 * (p.Hi[j] - p.Lo[j])
				}
			}
			clamp(child)
			next = append(next, indiv{child, eval(child)})
		}
		pop = next
	}
	return res, nil
}
