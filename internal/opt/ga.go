package opt

import (
	"context"
	"fmt"
	"math/rand"

	"artisan/internal/spec"
	"artisan/internal/telemetry"
	"artisan/internal/topology"
)

// GA is a genetic-algorithm topology searcher — the third black-box
// family the paper's introduction cites ([17] Mattiussi & Floreano,
// [21] Rojec et al.). It is not part of Table 3 but serves as an
// extension comparator: tournament selection, structural crossover at
// the connection-position level, and the shared mutation operators.

// The small-population steady configuration both GA and the real-coded
// SizeGA search with.
const (
	gaPopulation = 16
	gaTournament = 3
	// gaCrossoverP is the probability an offspring is produced by
	// crossover (otherwise a mutated copy of one parent).
	gaCrossoverP = 0.6
	gaElite      = 2 // best individuals that survive unchanged
)

// GA runs the genetic search under a hard simulation budget. The run
// emits an "opt.ga" span and stops between generations when the context
// is cancelled.
func GA(ctx context.Context, sp spec.Spec, budget int, seed int64) (*Result, error) {
	if budget < 20 {
		return nil, fmt.Errorf("opt: GA budget %d too small", budget)
	}
	ctx, span := telemetry.StartSpan(ctx, "opt.ga")
	defer span.End()
	rng := rand.New(rand.NewSource(seed))
	sampler := topology.NewSampler(seed + 1)
	ev := newEvaluator(sp, budget)
	defer func() { span.SetAttr("sims", fmt.Sprintf("%d", ev.sims)) }()

	type indiv struct {
		tp    *topology.Topology
		score float64
	}
	pop := make([]indiv, gaPopulation)
	for i := range pop {
		tp := sampler.Random()
		tp.Name = "GA"
		pop[i] = indiv{tp, ev.eval(ctx, tp)}
	}

	tournament := func() indiv {
		best := pop[rng.Intn(len(pop))]
		for i := 1; i < gaTournament; i++ {
			c := pop[rng.Intn(len(pop))]
			if c.score > best.score {
				best = c
			}
		}
		return best
	}

	for ev.remaining(budget) > gaPopulation-gaElite {
		if err := ctx.Err(); err != nil {
			span.SetAttr("cancelled", err.Error())
			return ev.best, err
		}
		// Sort descending by score (small population: simple selection).
		for i := 0; i < len(pop); i++ {
			for j := i + 1; j < len(pop); j++ {
				if pop[j].score > pop[i].score {
					pop[i], pop[j] = pop[j], pop[i]
				}
			}
		}
		next := make([]indiv, 0, gaPopulation)
		next = append(next, pop[:gaElite]...)
		for len(next) < gaPopulation && ev.remaining(budget) > 0 {
			var child *topology.Topology
			if rng.Float64() < gaCrossoverP {
				child = crossover(sampler, tournament().tp, tournament().tp, rng)
			} else {
				child = sampler.Mutate(tournament().tp)
			}
			child.Name = "GA"
			next = append(next, indiv{child, ev.eval(ctx, child)})
		}
		pop = next
	}
	return ev.best, nil
}

// crossover mixes two parents position-wise: the child takes each
// position's connection from a randomly chosen parent, and each stage
// transconductance likewise. Invalid children fall back to a mutation of
// parent a.
func crossover(s *topology.Sampler, a, b *topology.Topology, rng *rand.Rand) *topology.Topology {
	child := &topology.Topology{Name: "GA", Stages: make([]topology.Stage, 3)}
	for i := 0; i < 3; i++ {
		if rng.Intn(2) == 0 {
			child.Stages[i] = a.Stages[i]
		} else {
			child.Stages[i] = b.Stages[i]
		}
	}
	for _, p := range topology.LegalPositions() {
		src := a
		if rng.Intn(2) == 1 {
			src = b
		}
		if c := src.ConnAt(p); c != nil {
			child.SetConn(*c)
		}
	}
	if child.Validate() != nil {
		return s.Mutate(a)
	}
	return child
}
