// Package opt implements the two state-of-the-art black-box topology
// optimization baselines the paper compares against (§4.1.1):
//
//   - BOBO (Lu et al., DATE'22 [12]): Bayesian optimization over a
//     continuous embedding of the topology space — connection types are
//     relaxed to continuous codes, element values to log-space
//     coordinates — with a GP surrogate and EI acquisition.
//   - RLBO (Chen et al., ISQED'23 [3]): reinforcement-learning topology
//     search — a REINFORCE-updated softmax policy over structural
//     mutation operators, with short local parameter refinement inside
//     each episode.
//
// Both consume a hard budget of circuit simulations, the quantity that
// dominates the paper's multi-hour runtimes.
package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"artisan/internal/measure"
	"artisan/internal/sizing"
	"artisan/internal/spec"
	"artisan/internal/telemetry"
	"artisan/internal/topology"
)

// Result reports one optimization run.
type Result struct {
	Best    *topology.Topology
	Report  measure.Report
	Score   float64
	Success bool
	Sims    int
}

// evaluator counts simulations and scores topologies under a spec.
type evaluator struct {
	sp     spec.Spec
	best   *Result
	budget int
	sims   int
}

func newEvaluator(sp spec.Spec, budget int) *evaluator {
	return &evaluator{sp: sp, best: &Result{Score: math.Inf(-1)}, budget: budget}
}

// measure elaborates and measures one candidate under the spec's load,
// counting the simulation. A dead context fails the measurement (and so
// poisons the remaining evaluations), which is how cancellation drains
// the optimizers' inner loops quickly.
func (e *evaluator) measure(ctx context.Context, tp *topology.Topology) (measure.Report, error) {
	env := topology.DefaultEnv()
	env.CL, env.RL = e.sp.CL, e.sp.RL
	nl, err := tp.Elaborate(env)
	if err != nil {
		return measure.Report{}, err
	}
	if err := ctx.Err(); err != nil {
		return measure.Report{}, err
	}
	e.sims++
	return measure.AnalyzeContext(ctx, nl, "out")
}

func (e *evaluator) eval(ctx context.Context, tp *topology.Topology) float64 {
	if e.sims >= e.budget {
		return -100 // budget exhausted: the run is over
	}
	rep, err := e.measure(ctx, tp)
	score := -100.0
	if err == nil {
		score = spec.Score(e.sp, rep)
	}
	if score > e.best.Score {
		e.best.Score = score
		e.best.Best = tp.Clone()
		e.best.Report = rep
		e.best.Success = err == nil && e.sp.Satisfied(rep)
	}
	e.best.Sims = e.sims
	return score
}

func (e *evaluator) remaining(budget int) int { return budget - e.sims }

// --- BOBO -----------------------------------------------------------------

// emb describes the continuous embedding layout: per legal position one
// type code plus three log-value coordinates, then three stage gm
// coordinates.
type emb struct {
	positions []topology.Position
	types     [][]topology.ConnType
}

func newEmb() *emb {
	e := &emb{positions: topology.LegalPositions()}
	for _, p := range e.positions {
		e.types = append(e.types, topology.LegalTypesAt(p))
	}
	return e
}

func (e *emb) dim() int { return len(e.positions)*4 + 3 }

// decode lowers a point of the continuous embedding space to a topology.
func (e *emb) decode(x []float64) *topology.Topology {
	tp := &topology.Topology{Name: "BOBO", Stages: make([]topology.Stage, 3)}
	for i := 0; i < 3; i++ {
		gm := math.Exp(logGmLo + x[len(x)-3+i]*(logGmHi-logGmLo))
		a0 := topology.DefaultStageA0[i]
		tp.Stages[i] = topology.Stage{Gm: gm, A0: a0}
	}
	for i, p := range e.positions {
		base := i * 4
		types := e.types[i]
		idx := int(x[base] * float64(len(types)))
		if idx >= len(types) {
			idx = len(types) - 1
		}
		ct := types[idx]
		if ct == topology.ConnNone {
			continue
		}
		c := topology.Connection{Pos: p, Type: ct}
		if ct.HasGm() {
			c.Gm = math.Exp(logGmLo + x[base+1]*(logGmHi-logGmLo))
		}
		if ct.HasC() {
			c.C = math.Exp(logCLo + x[base+2]*(logCHi-logCLo))
		}
		if ct.HasR() {
			c.R = math.Exp(logRLo + x[base+3]*(logRHi-logRLo))
		}
		tp.SetConn(c)
	}
	return tp
}

var (
	logGmLo, logGmHi = math.Log(1e-6), math.Log(3e-3)
	logCLo, logCHi   = math.Log(0.1e-12), math.Log(20e-12)
	logRLo, logRHi   = math.Log(1e3), math.Log(1e6)
)

// BOBO runs Bayesian optimization over the topology embedding with the
// given simulation budget. The run emits an "opt.bobo" span when the
// context carries a tracer, and cancellation stops the underlying BO
// loop at the next iteration boundary.
func BOBO(ctx context.Context, sp spec.Spec, budget int, seed int64) (*Result, error) {
	if budget < 20 {
		return nil, fmt.Errorf("opt: BOBO budget %d too small", budget)
	}
	ctx, span := telemetry.StartSpan(ctx, "opt.bobo")
	defer span.End()
	e := newEmb()
	ev := newEvaluator(sp, budget)
	defer func() { span.SetAttr("sims", fmt.Sprintf("%d", ev.sims)) }()
	d := e.dim()
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := range hi {
		hi[i] = 1
	}
	init := budget / 4
	prob := sizing.Problem{Lo: lo, Hi: hi, Eval: func(x []float64) float64 {
		tp := e.decode(x)
		if tp.Validate() != nil {
			return -100
		}
		return ev.eval(ctx, tp)
	}}
	err := sizing.Optimize(ctx, prob, sizing.Options{
		InitSamples: init, Iterations: budget - init, Candidates: 256, Seed: seed})
	if err != nil {
		return nil, err
	}
	return ev.best, nil
}

// --- RLBO -----------------------------------------------------------------

// RLBO runs REINFORCE over structural mutation operators: episodes of
// mutations from a seeded skeleton, a softmax policy over move kinds
// updated by the episode advantage, and a short Nelder–Mead parameter
// refinement of the per-episode best. The run emits an "opt.rlbo" span
// and stops between episodes when the context is cancelled.
func RLBO(ctx context.Context, sp spec.Spec, budget int, seed int64) (*Result, error) {
	if budget < 20 {
		return nil, fmt.Errorf("opt: RLBO budget %d too small", budget)
	}
	ctx, span := telemetry.StartSpan(ctx, "opt.rlbo")
	defer span.End()
	rng := rand.New(rand.NewSource(seed))
	sampler := topology.NewSampler(seed + 1)
	ev := newEvaluator(sp, budget)
	defer func() { span.SetAttr("sims", fmt.Sprintf("%d", ev.sims)) }()

	// Policy: softmax logits over the mutation kinds.
	logits := make([]float64, 5)
	sample := func() int {
		mx := logits[0]
		for _, l := range logits {
			if l > mx {
				mx = l
			}
		}
		sum := 0.0
		ps := make([]float64, len(logits))
		for i, l := range logits {
			ps[i] = math.Exp(l - mx)
			sum += ps[i]
		}
		r := rng.Float64() * sum
		for i, p := range ps {
			r -= p
			if r <= 0 {
				return i
			}
		}
		return len(ps) - 1
	}

	const stepsPerEpisode = 6
	baseline := 0.0
	nEp := 0
	for ev.remaining(budget) > stepsPerEpisode+2 {
		if err := ctx.Err(); err != nil {
			span.SetAttr("cancelled", err.Error())
			return ev.best, err
		}
		// Episode start: a random topology. (A black-box searcher has no
		// expert prior — it does not know the Miller-compensation seeds a
		// human would start from; that asymmetry is the paper's point.)
		cur := sampler.Random()
		cur.Name = "RLBO"
		curScore := ev.eval(ctx, cur)
		var actions []int
		for step := 0; step < stepsPerEpisode && ev.remaining(budget) > 2; step++ {
			kind := sample()
			actions = append(actions, kind)
			// Follow the policy's trajectory (REINFORCE explores; it does
			// not hill-climb within an episode).
			cur = mutateKind(sampler, cur, kind)
			curScore = ev.eval(ctx, cur)
		}
		// REINFORCE update with a running baseline.
		nEp++
		adv := curScore - baseline
		baseline += (curScore - baseline) / float64(nEp)
		lr := 0.2
		for _, a := range actions {
			// ∂logπ/∂logit_a = 1 − π_a ≈ simple signed update
			logits[a] += lr * sign(adv) / float64(len(actions))
		}
	}
	// Short local refinement of the incumbent (TOTAL's sizing inner
	// loop); capped so the run stays exploration-dominated.
	if ev.best.Best != nil && ev.remaining(budget) > 8 {
		cap := ev.sims + 30
		if cap < budget {
			ev.budget = cap
		}
		refineBest(ctx, ev, ev.budget)
		ev.budget = budget
	}
	return ev.best, nil
}

func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

func mutateKind(s *topology.Sampler, tp *topology.Topology, kind int) *topology.Topology {
	// The sampler's Mutate picks its own kind; to bias by policy we
	// resample until the structural effect matches the requested class.
	// Classes: 0 add, 1 remove, 2 retype, 3 value jitter, 4 stage jitter.
	for i := 0; i < 8; i++ {
		m := s.Mutate(tp)
		switch kind {
		case 0:
			if len(m.Conns) > len(tp.Conns) {
				return m
			}
		case 1:
			if len(m.Conns) < len(tp.Conns) {
				return m
			}
		default:
			if len(m.Conns) == len(tp.Conns) {
				return m
			}
		}
	}
	return s.Mutate(tp)
}

// refineBest spends the remaining budget on Nelder–Mead over the
// incumbent's continuous parameters.
func refineBest(ctx context.Context, ev *evaluator, budget int) {
	base := ev.best.Best.Clone()
	var cur []float64
	var setters []func(tp *topology.Topology, v float64)
	addSlot := func(v float64, set func(tp *topology.Topology, v float64)) {
		cur = append(cur, math.Log(v))
		setters = append(setters, set)
	}
	for i := range base.Stages {
		i := i
		addSlot(base.Stages[i].Gm, func(tp *topology.Topology, v float64) { tp.Stages[i].Gm = v })
	}
	for i := range base.Conns {
		i := i
		c := base.Conns[i]
		if c.Type.HasGm() {
			addSlot(c.Gm, func(tp *topology.Topology, v float64) { tp.Conns[i].Gm = v })
		}
		if c.Type.HasC() {
			addSlot(c.C, func(tp *topology.Topology, v float64) { tp.Conns[i].C = v })
		}
	}
	lo := make([]float64, len(cur))
	hi := make([]float64, len(cur))
	for i := range cur {
		lo[i] = cur[i] - math.Log(3)
		hi[i] = cur[i] + math.Log(3)
	}
	iters := ev.remaining(budget) - len(cur) - 2
	if iters < 2 {
		return
	}
	prob := sizing.Problem{Lo: lo, Hi: hi, Eval: func(x []float64) float64 {
		tp := base.Clone()
		for i, set := range setters {
			set(tp, math.Exp(x[i]))
		}
		if tp.Validate() != nil {
			return -100
		}
		return ev.eval(ctx, tp)
	}}
	// NelderMead fails only when a value has no finite log (a zero stage
	// gm); the run then keeps its unrefined best.
	_ = sizing.NelderMead(prob, cur, iters/2)
}
