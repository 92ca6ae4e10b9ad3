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
// bounds as the BO sizer, different search dynamics. Like
// sizing.Optimize it leaves the incumbent to the objective.
func SizeGA(ctx context.Context, p sizing.Problem, budget int, seed int64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if budget < 8 {
		return fmt.Errorf("opt: SizeGA budget %d too small", budget)
	}
	ctx, span := telemetry.StartSpan(ctx, "opt.ga")
	defer span.End()
	span.SetAttr("mode", "sizing")
	popSize := min(gaPopulation, budget/2)
	d := len(p.Lo)
	rng := rand.New(rand.NewSource(seed))
	evals := 0
	defer func() { span.SetAttr("evals", fmt.Sprintf("%d", evals)) }()

	clamp := func(x []float64) {
		for i := range x {
			x[i] = math.Max(p.Lo[i], math.Min(p.Hi[i], x[i]))
		}
	}
	eval := func(x []float64) float64 {
		evals++
		return p.Eval(x)
	}

	type indiv struct {
		x []float64
		y float64
	}
	pop := make([]indiv, popSize)
	for i := range pop {
		x := make([]float64, d)
		for j := range x {
			x[j] = p.Lo[j] + rng.Float64()*(p.Hi[j]-p.Lo[j])
		}
		pop[i] = indiv{x, eval(x)}
	}

	tournament := func() indiv {
		best := pop[rng.Intn(len(pop))]
		for i := 1; i < gaTournament; i++ {
			c := pop[rng.Intn(len(pop))]
			if c.y > best.y {
				best = c
			}
		}
		return best
	}

	const alpha = 0.4 // BLX blend factor
	for evals+popSize-gaElite <= budget {
		if err := ctx.Err(); err != nil {
			span.SetAttr("cancelled", err.Error())
			return err
		}
		// Sort descending by score (small population: simple selection).
		for i := 0; i < len(pop); i++ {
			for j := i + 1; j < len(pop); j++ {
				if pop[j].y > pop[i].y {
					pop[i], pop[j] = pop[j], pop[i]
				}
			}
		}
		next := make([]indiv, 0, popSize)
		next = append(next, pop[:gaElite]...)
		for len(next) < popSize && evals < budget {
			child := make([]float64, d)
			if rng.Float64() < gaCrossoverP {
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
	return nil
}
