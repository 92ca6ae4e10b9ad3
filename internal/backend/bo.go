package backend

import (
	"context"

	"artisan/internal/sizing"
	"artisan/internal/telemetry"
)

// boBackend wraps the GP/BO optimizer of internal/sizing — the
// incumbent black-box sizer the agent tuner has always used.
type boBackend struct{}

func init() { Register(boBackend{}) }

func (boBackend) Name() string { return "bo" }

func (boBackend) Capabilities() Capabilities {
	return Capabilities{Global: true, Deterministic: true}
}

func (boBackend) Size(ctx context.Context, p Problem, seed int64) (*Result, error) {
	return sizeBO(ctx, p, seed, nil)
}

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

// sizeBO is the shared BO run: plain when incumbent is nil, seeded when
// the hybrid backend supplies the white-box point. The span name keeps
// the two distinguishable in traces.
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
	space, err := NewSpace(p.Topo)
	if err != nil {
		return nil, err
	}
	tr := newTracker(p)
	opts := boOptions(p.Budget, seed)
	opts.Init = incumbent
	if incumbent != nil {
		// The incumbent consumes one evaluation up front.
		opts.Iterations--
	}
	prob := sizing.Problem{Lo: space.Lo, Hi: space.Hi, Eval: func(x []float64) float64 {
		tp := space.Build(x)
		if tp.Validate() != nil {
			return -1e4
		}
		return tr.eval(ctx, tp)
	}}
	if _, err := sizing.Optimize(ctx, prob, opts); err != nil {
		if res, rerr := tr.result(); rerr == nil && ctx.Err() != nil {
			// Cancellation: surface the best point found so far alongside
			// the context error, like sizing.Optimize does.
			return res, err
		}
		return nil, err
	}
	return tr.result()
}
