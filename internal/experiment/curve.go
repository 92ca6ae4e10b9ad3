package experiment

import (
	"context"
	"fmt"
	"strings"

	"artisan/internal/spec"
)

// Budget-sensitivity curves: how a black-box baseline's success rate
// grows with its simulation budget. This is the convergence-style
// experiment the optimization literature reports, and it locates the
// budget at which a searcher would catch up with the knowledge-driven
// flow — typically far beyond anything wall-clock-feasible on a real
// simulator.

// CurvePoint is one budget's aggregate.
type CurvePoint struct {
	Budget    int
	Trials    int
	Successes int
	BestFoM   float64 // best FoM over the successful trials
}

// BudgetCurve evaluates the method at each budget with the given trials.
// Only the black-box methods are meaningful here (Artisan does not
// consume a search budget).
func BudgetCurve(ctx context.Context, m Method, g spec.Spec, budgets []int, trials int, seed int64) ([]CurvePoint, error) {
	if trials < 1 {
		return nil, fmt.Errorf("experiment: trials must be >= 1")
	}
	switch m {
	case MethodBOBO, MethodRLBO, MethodGA:
	default:
		return nil, fmt.Errorf("experiment: %s has no budget curve", m)
	}
	var out []CurvePoint
	for _, b := range budgets {
		pt := CurvePoint{Budget: b, Trials: trials}
		for i := 0; i < trials; i++ {
			r, err := runTrial(ctx, m, g, Config{Budget: b}, seed+int64(i)*977+int64(b))
			if err != nil {
				return nil, err
			}
			if r.ok {
				pt.Successes++
				if fom := g.FoMOf(r.rep); fom > pt.BestFoM {
					pt.BestFoM = fom
				}
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// FormatCurve renders the curve as a small table.
func FormatCurve(m Method, pts []CurvePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s success vs budget:\n", m)
	for _, p := range pts {
		fmt.Fprintf(&b, "  %4d sims: %d/%d (best FoM %.0f)\n", p.Budget, p.Successes, p.Trials, p.BestFoM)
	}
	return b.String()
}
