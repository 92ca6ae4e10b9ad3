package backend

import (
	"context"

	"artisan/internal/opt"
	"artisan/internal/sizing"
	"artisan/internal/telemetry"
)

// sizeGA runs the real-coded genetic sizer of internal/opt: same
// parameter space and objective as BO, population-based search dynamics
// instead of a surrogate model.
func sizeGA(ctx context.Context, p Problem, seed int64) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	ctx, span := telemetry.StartSpan(ctx, "sizing.ga")
	defer span.End()
	return search(ctx, p, func(obj sizing.Problem) error {
		return opt.SizeGA(ctx, obj, p.Budget, seed)
	})
}
