package backend

import (
	"context"

	"artisan/internal/sizing"
	"artisan/internal/telemetry"
)

// boOptions allocates the BO budget: a quarter on Latin-hypercube
// exploration (clamped to [6, 16]), the rest on acquisition iterations.
func boOptions(budget int, seed int64) sizing.Options {
	init := budget / 4
	if init < 6 {
		init = 6
	}
	if init > 16 {
		init = 16
	}
	return sizing.Options{
		InitSamples: init, Iterations: budget - init, Candidates: 256, Seed: seed,
	}
}

// sizeBO runs the GP/BO optimizer of internal/sizing — the incumbent
// black-box sizer the agent tuner has always used. It is plain when
// incumbent is nil and seeded when the hybrid backend supplies the
// white-box point; the span name keeps the two distinguishable in
// traces.
func sizeBO(ctx context.Context, p Problem, seed int64, incumbent []float64) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	name := "sizing.bo"
	if incumbent != nil {
		name = "sizing.hybrid"
	}
	ctx, span := telemetry.StartSpan(ctx, name)
	defer span.End()
	return search(ctx, p, func(obj sizing.Problem) error {
		opts := boOptions(p.Budget, seed)
		opts.Init = incumbent
		if incumbent != nil {
			// The incumbent consumes one evaluation up front.
			opts.Iterations--
		}
		return sizing.Optimize(ctx, obj, opts)
	})
}

// sizeHybrid feeds the white-box analytic seed into the BO loop as its
// incumbent: the GP starts from the knowledge-card operating point (one
// evaluation) and spends the rest of the budget exploring around it —
// analytic insight plus global search. When the seed derivation fails
// the run degrades to plain BO in place (its span is "sizing.bo", not
// "sizing.hybrid") rather than erroring, since BO needs nothing from the
// seed.
func sizeHybrid(ctx context.Context, p Problem, seed int64) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	x0, _ := seedPoint(p) // a failed seed leaves x0 nil: plain BO
	return sizeBO(ctx, p, seed, x0)
}
