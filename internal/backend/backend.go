// Package backend is the pluggable sizing subsystem: a name→run table
// over the repository's parameter optimizers — the GP/BO loop
// (internal/sizing), a real-coded GA (internal/opt), an analytic
// white-box gm/Id engine seeded from the CoT design recipes of
// internal/design, and a hybrid that seeds BO with the white-box
// operating point. Every run searches the same parameter Space through
// one loop, so the backends differ only in the optimizer they drive. The
// White-Box Reasoning line of work (PAPERS.md) motivates the split: an
// analytic first guess plus local refinement reaches spec-satisfying
// designs in a fraction of the simulator evaluations a pure black-box
// search needs, and the shared table is what lets the agent loop, the
// server, and the evaluation harness compare them head to head.
package backend

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"artisan/internal/measure"
	"artisan/internal/sizing"
	"artisan/internal/spec"
	"artisan/internal/topology"
)

// Problem is one sizing task: a fixed topology whose continuous
// parameters (stage and connection gm/C/R values) are tuned against a
// spec under a hard evaluation budget. Eval measures one candidate; it
// is supplied by the caller so the backend inherits whatever simulator
// wrapper (invocation counting, fault injection, tracing) the caller
// runs — the backends never import the agent loop.
type Problem struct {
	Spec   spec.Spec
	Topo   *topology.Topology
	Eval   func(ctx context.Context, tp *topology.Topology) (measure.Report, error)
	Budget int // maximum Eval calls
}

func (p Problem) validate() error {
	if p.Topo == nil {
		return errors.New("backend: nil topology")
	}
	if p.Eval == nil {
		return errors.New("backend: nil evaluator")
	}
	if p.Budget < 10 {
		return fmt.Errorf("backend: budget %d too small (need >= 10)", p.Budget)
	}
	return nil
}

// Result is the outcome of one backend run.
type Result struct {
	Backend string // name of the backend that produced the result
	Topo    *topology.Topology
	Report  measure.Report
	Score   float64
	Success bool // best candidate satisfies the spec
	Evals   int  // simulator evaluations consumed
	// EvalsToSuccess is the evaluation index (1-based) at which the
	// first spec-satisfying candidate appeared; 0 if none did.
	EvalsToSuccess int
	// Seeded reports whether an analytic white-box seed was installed
	// (always true for whitebox; true for hybrid unless seeding failed).
	Seeded bool
}

// DefaultName is the backend used when the caller does not choose: the
// server, a request and the agent tuner all resolve an empty name to it.
const DefaultName = "hybrid"

// runs is the backend table: each name maps to a run that sizes a fixed
// topology against a spec, deterministic in (Problem, seed) and
// respecting ctx cancellation between evaluations.
var runs = map[string]func(ctx context.Context, p Problem, seed int64) (*Result, error){
	"bo": func(ctx context.Context, p Problem, seed int64) (*Result, error) {
		return sizeBO(ctx, p, seed, nil)
	},
	"ga":       sizeGA,
	"hybrid":   sizeHybrid,
	"whitebox": sizeWhitebox,
}

// Get returns the named backend's run.
func Get(name string) (func(ctx context.Context, p Problem, seed int64) (*Result, error), error) {
	run, ok := runs[name]
	if !ok {
		return nil, fmt.Errorf("backend: unknown sizing backend %q (have %v)", name, Names())
	}
	return run, nil
}

// Names lists the backends, sorted.
func Names() []string {
	names := make([]string, 0, len(runs))
	for n := range runs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Ladder returns the degradation chain for a preferred backend: the
// backend itself, then plain BO — the mirror of the resilience
// fallback-model ladder. The analytic backends degrade to BO because
// their seed derivation can legitimately fail (unsupported topology
// family, unrealizable device sizes at a process corner), while BO only
// needs a valid parameter space. An unknown name fails on its first
// rung.
func Ladder(name string) []string {
	if name == "bo" {
		return []string{"bo"}
	}
	return []string{name, "bo"}
}

// SizeLadder runs the preferred backend, degrading down its ladder on
// failure. onDegrade (optional) observes each hop so callers can record
// it (the agent transcript, the harness degradation counter). Context
// errors are terminal — a cancelled session must not silently retry on
// a fallback backend.
func SizeLadder(ctx context.Context, name string, p Problem, seed int64, onDegrade func(from, to string, err error)) (*Result, error) {
	chain := Ladder(name)
	var lastErr error
	for i, n := range chain {
		run, err := Get(n)
		if err != nil {
			return nil, err
		}
		res, err := run(ctx, p, seed)
		if err == nil {
			res.Backend = n
			return res, nil
		}
		if ctx.Err() != nil {
			return res, err
		}
		lastErr = err
		if i+1 < len(chain) && onDegrade != nil {
			onDegrade(n, chain[i+1], err)
		}
	}
	return nil, fmt.Errorf("backend: ladder %v exhausted: %w", chain, lastErr)
}

// tracker adapts a Problem to a scalar objective, enforcing the budget
// and keeping the incumbent. A failed or over-budget evaluation scores
// far below any real candidate (-1e4) so optimizers rank it last.
type tracker struct {
	p       Problem
	evals   int
	firstOK int
	best    *Result
}

func (t *tracker) eval(ctx context.Context, tp *topology.Topology) float64 {
	if t.evals >= t.p.Budget {
		return -1e4
	}
	t.evals++
	rep, err := t.p.Eval(ctx, tp)
	if err != nil {
		return -1e4
	}
	s := spec.Score(t.p.Spec, rep)
	ok := t.p.Spec.Satisfied(rep)
	if ok && t.firstOK == 0 {
		t.firstOK = t.evals
	}
	if t.best == nil || s > t.best.Score {
		t.best = &Result{Topo: tp.Clone(), Report: rep, Score: s, Success: ok}
	}
	return s
}

// result finalizes the run. An empty run (every evaluation failed, or
// none ran) is an error so the ladder can degrade.
func (t *tracker) result() (*Result, error) {
	if t.best == nil {
		return nil, errors.New("backend: no candidate evaluated successfully")
	}
	t.best.Evals = t.evals
	t.best.EvalsToSuccess = t.firstOK
	return t.best, nil
}

// search is the loop every backend shares: it builds the Space around
// p.Topo and a budgeted tracker, hands run the objective over that space
// (-1e4 for a candidate that is not a valid topology), and returns the
// best candidate, marked seeded or not. When run fails after ctx is
// done, the best point found so far comes back alongside the error, as
// sizing.Optimize does; any other failure returns only the error.
func search(ctx context.Context, p Problem, seeded bool, run func(obj sizing.Problem) error) (*Result, error) {
	space, err := NewSpace(p.Topo)
	if err != nil {
		return nil, err
	}
	tr := &tracker{p: p}
	err = run(sizing.Problem{Lo: space.Lo, Hi: space.Hi, Eval: func(x []float64) float64 {
		tp := space.Build(x)
		if tp.Validate() != nil {
			return -1e4
		}
		return tr.eval(ctx, tp)
	}})
	res, rerr := tr.result()
	if res != nil {
		res.Seeded = seeded
	}
	switch {
	case err == nil:
		return res, rerr
	case rerr == nil && ctx.Err() != nil:
		return res, err
	default:
		return nil, err
	}
}
