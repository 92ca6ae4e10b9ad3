// Package agents implements the multi-agent question-answer framework of
// §3.3 (Fig. 5): an Artisan-Prompter that schedules design questions, a
// designer agent wrapping an LLM (the Artisan-LLM or an off-the-shelf
// baseline), and the third-party tools the LLM invokes by prompt
// instruction — the calculator, the circuit simulator, and the
// parameter-tuning tool. A Session runs the hierarchical flow: the
// Tree-of-Thoughts architecture decision, the Chain-of-Thoughts design
// flow, simulation-based verification, and the ToT modification decision.
package agents

import (
	"context"
	"fmt"
	"math"
	"strings"

	"artisan/internal/backend"
	"artisan/internal/calc"
	"artisan/internal/measure"
	"artisan/internal/netlist"
	"artisan/internal/resilience"
	"artisan/internal/sizing"
	"artisan/internal/spec"
	"artisan/internal/telemetry"
	"artisan/internal/topology"
)

// Tool is an auxiliary capability an agent can invoke by instruction.
// Invocations take a context: tool backends are the slow, failure-prone
// edge of the agent loop, and a cancelled session or an expired
// per-stage deadline must stop them instead of wedging a worker.
type Tool interface {
	Name() string
	Describe() string
	Invoke(ctx context.Context, input string) (string, error)
}

// Calculator wraps a calc session as a tool (the Fig. 7 Q3→A3 helper).
type Calculator struct {
	sess *calc.Session
}

// NewCalculator returns a fresh calculator tool.
func NewCalculator() *Calculator { return &Calculator{sess: calc.NewSession()} }

// Name implements Tool.
func (c *Calculator) Name() string { return "calculator" }

// Describe implements Tool.
func (c *Calculator) Describe() string {
	return "evaluates engineering expressions and assignments, e.g. gm3 = 8*pi*GBW*CL"
}

// Invoke evaluates one expression line.
func (c *Calculator) Invoke(ctx context.Context, input string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	_, span := telemetry.StartSpan(ctx, "tool.calculator")
	defer span.End()
	return c.sess.Run(input)
}

// Env exposes the underlying environment for preloading spec values.
func (c *Calculator) Env() *calc.Env { return c.sess.Env() }

// Simulator wraps the MNA engine as a tool; it parses a netlist, runs the
// metric extraction and renders the report. It also counts invocations,
// which drives the evaluation's modeled wall-clock time.
type Simulator struct {
	Invocations int
	// Faults, when non-nil, is the chaos-mode hook: every measurement
	// first consults the seeded injector, which may fail the call, stall
	// it until the context gives up, or corrupt the report while keeping
	// it parseable. Nil means the simulator is healthy.
	Faults *resilience.Injector
}

// NewSimulator returns a fresh simulator tool.
func NewSimulator() *Simulator { return &Simulator{} }

// Name implements Tool.
func (s *Simulator) Name() string { return "simulator" }

// Describe implements Tool.
func (s *Simulator) Describe() string {
	return "AC-simulates a behavioral netlist (output node 'out') and reports Gain/GBW/PM/Power"
}

// Invoke parses netlist text and measures it.
func (s *Simulator) Invoke(ctx context.Context, input string) (string, error) {
	nl, err := netlist.Parse(input)
	if err != nil {
		return "", fmt.Errorf("agents: simulator: %w", err)
	}
	rep, err := s.MeasureNetlist(ctx, nl)
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

// MeasureNetlist measures a parsed netlist at node "out".
func (s *Simulator) MeasureNetlist(ctx context.Context, nl *netlist.Netlist) (measure.Report, error) {
	if err := ctx.Err(); err != nil {
		return measure.Report{}, err
	}
	s.Invocations++
	ctx, span := telemetry.StartSpan(ctx, "tool.simulator")
	defer span.End()
	span.SetAttr("invocation", fmt.Sprintf("%d", s.Invocations))
	f, err := s.Faults.Apply(ctx, "simulator")
	if err != nil {
		return measure.Report{}, err
	}
	rep, err := measure.AnalyzeContext(ctx, nl, "out")
	if err == nil && f == resilience.FaultCorrupt {
		// Corrupted-but-parseable: the report decodes fine but the GBW is
		// three orders off, so only spec verification can catch it.
		rep.GBW *= 1e-3
	}
	return rep, err
}

// MeasureTopology elaborates a topology under the spec's load and
// measures it.
func (s *Simulator) MeasureTopology(ctx context.Context, topo *topology.Topology, sp spec.Spec) (measure.Report, error) {
	env := topology.DefaultEnv()
	env.CL, env.RL = sp.CL, sp.RL
	nl, err := topo.Elaborate(env)
	if err != nil {
		return measure.Report{}, err
	}
	return s.MeasureNetlist(ctx, nl)
}

// Tuner wraps the Bayesian-optimization sizing tool [14]: it tunes the
// continuous parameters (stage and connection gm/R/C values) of a fixed
// topology to maximize the spec-constrained figure of merit.
type Tuner struct {
	Sim    *Simulator
	Budget sizing.Options
	// Backend selects the sizing backend by registry name ("bo", "ga",
	// "whitebox", "hybrid"). Empty means the legacy direct BO path of
	// Tune; any other value routes TuneWith through the backend registry
	// with its degradation ladder.
	Backend string
	// OnDegrade, when non-nil, observes each degradation hop of the
	// backend ladder (sessions record it in the transcript, mirroring
	// the fallback-model resilience pattern).
	OnDegrade func(from, to string, err error)
}

// NewTuner returns the tuning tool sharing the session simulator (so its
// evaluations are counted).
func NewTuner(sim *Simulator, seed int64) *Tuner {
	return &Tuner{Sim: sim, Budget: sizing.DefaultOptions(seed)}
}

// Name implements Tool.
func (t *Tuner) Name() string { return "tuner" }

// Describe implements Tool.
func (t *Tuner) Describe() string {
	return "Bayesian-optimization parameter tuning of a fixed topology against the spec"
}

// Invoke is informational; real invocations go through Tune.
func (t *Tuner) Invoke(ctx context.Context, input string) (string, error) {
	return "", fmt.Errorf("agents: tuner requires a structured topology; use Tune")
}

// Score is the constrained objective: the FoM when every spec is met,
// otherwise the negative sum of relative violations. It delegates to
// spec.Score, the canonical definition shared with the sizing backends.
func Score(sp spec.Spec, rep measure.Report) float64 {
	return spec.Score(sp, rep)
}

// Tune optimizes the topology's continuous parameters in log space within
// ±4× of their current values. It returns the best topology found, its
// report, and the achieved score.
func (t *Tuner) Tune(ctx context.Context, topo *topology.Topology, sp spec.Spec) (*topology.Topology, measure.Report, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, measure.Report{}, 0, err
	}
	ctx, span := telemetry.StartSpan(ctx, "tool.tuner")
	defer span.End()
	type slot struct {
		set func(tp *topology.Topology, v float64)
		cur float64
	}
	var slots []slot
	for i := range topo.Stages {
		i := i
		slots = append(slots, slot{func(tp *topology.Topology, v float64) { tp.Stages[i].Gm = v }, topo.Stages[i].Gm})
	}
	for i := range topo.Conns {
		i := i
		c := topo.Conns[i]
		if c.Type.HasGm() {
			slots = append(slots, slot{func(tp *topology.Topology, v float64) { tp.Conns[i].Gm = v }, c.Gm})
		}
		if c.Type.HasC() {
			slots = append(slots, slot{func(tp *topology.Topology, v float64) { tp.Conns[i].C = v }, c.C})
		}
		if c.Type.HasR() {
			slots = append(slots, slot{func(tp *topology.Topology, v float64) { tp.Conns[i].R = v }, c.R})
		}
	}
	if len(slots) == 0 {
		return nil, measure.Report{}, 0, fmt.Errorf("agents: nothing to tune")
	}
	d := len(slots)
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i, s := range slots {
		l := math.Log(s.cur)
		lo[i] = l - math.Log(4)
		hi[i] = l + math.Log(4)
	}
	build := func(x []float64) *topology.Topology {
		tp := topo.Clone()
		for i, s := range slots {
			s.set(tp, math.Exp(x[i]))
		}
		return tp
	}
	prob := sizing.Problem{Lo: lo, Hi: hi, Eval: func(x []float64) float64 {
		// A dead context poisons every remaining evaluation so the BO
		// loop drains quickly instead of burning its full budget.
		rep, err := t.Sim.MeasureTopology(ctx, build(x), sp)
		if err != nil {
			return -100
		}
		return Score(sp, rep)
	}}
	res, err := sizing.Optimize(ctx, prob, t.Budget)
	if err != nil {
		return nil, measure.Report{}, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, measure.Report{}, 0, err
	}
	best := build(res.BestX)
	rep, err := t.Sim.MeasureTopology(ctx, best, sp)
	if err != nil {
		return nil, measure.Report{}, 0, err
	}
	return best, rep, res.BestY, nil
}

// TuneWith runs the configured sizing backend (Backend, defaulting to
// plain BO) over the topology's parameter space, degrading down the
// backend ladder on failure. It returns the backend result alongside
// the tuned topology so callers can record which backend won and how
// many evaluations it spent.
func (t *Tuner) TuneWith(ctx context.Context, topo *topology.Topology, sp spec.Spec) (*topology.Topology, measure.Report, float64, *backend.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, measure.Report{}, 0, nil, err
	}
	ctx, span := telemetry.StartSpan(ctx, "tool.tuner")
	defer span.End()
	name := t.Backend
	if name == "" {
		name = backend.DefaultName
	}
	span.SetAttr("backend", name)
	p := backend.Problem{
		Spec: sp, Topo: topo,
		// The backend budget matches the legacy BO spend: init samples
		// plus iterations plus the final re-measure.
		Budget: t.Budget.InitSamples + t.Budget.Iterations + 2,
		Eval: func(ctx context.Context, tp *topology.Topology) (measure.Report, error) {
			// Routing through the session simulator keeps the evaluations
			// counted (and fault-injected) exactly like every other
			// measurement.
			return t.Sim.MeasureTopology(ctx, tp, sp)
		},
	}
	res, err := backend.SizeLadder(ctx, name, p, t.Budget.Seed, t.OnDegrade)
	if err != nil {
		return nil, measure.Report{}, 0, res, err
	}
	return res.Topo, res.Report, res.Score, res, nil
}

// describeFailure renders spec violations as the natural-language failure
// report the prompter feeds back to the LLM (the Fig. 7 Q9 phrasing).
func describeFailure(sp spec.Spec, rep measure.Report) string {
	vs := sp.Check(rep)
	var parts []string
	if rep.PoleZeroErr != "" {
		// Distinguish "verified unstable" from "stability unknown": the
		// simulator's root finder failed, so the stability verdict below
		// is not evidence about the circuit.
		parts = append(parts, fmt.Sprintf("pole/zero extraction failed (%s), stability is unverified", rep.PoleZeroErr))
	}
	for _, v := range vs {
		switch v.Metric {
		case "GBW(Hz)":
			parts = append(parts, "the bandwidth is too slow, GBW misses the spec")
		case "Gain(dB)":
			parts = append(parts, "the DC gain is insufficient, too low")
		case "PM(deg)":
			parts = append(parts, "the phase margin is inadequate, the loop is underdamped")
		case "Power(W)":
			parts = append(parts, "the power budget is exceeded, too much current")
		case "Stability":
			parts = append(parts, "the amplifier is unstable")
		}
	}
	if sp.CL >= 100e-12 {
		parts = append(parts, fmt.Sprintf("the design suffers driving the large capacitive load CL=%s", fmtCL(sp.CL)))
	}
	return strings.Join(parts, "; ")
}

func fmtCL(cl float64) string {
	if cl >= 1e-9 {
		return fmt.Sprintf("%gnF", cl*1e9)
	}
	return fmt.Sprintf("%gpF", cl*1e12)
}
