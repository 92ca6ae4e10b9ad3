// Package agents implements the multi-agent question-answer framework of
// §3.3 (Fig. 5): an Artisan-Prompter that schedules design questions, a
// designer agent wrapping an LLM (the Artisan-LLM or an off-the-shelf
// baseline), and the circuit simulator and parameter-tuning tool the
// session calls directly (the CoT recipes in internal/design run the
// calculator themselves). A Session runs the hierarchical flow: the
// Tree-of-Thoughts architecture decision, the Chain-of-Thoughts design
// flow, simulation-based verification, and the ToT modification decision.
package agents

import (
	"context"
	"fmt"
	"strings"

	"artisan/internal/backend"
	"artisan/internal/measure"
	"artisan/internal/netlist"
	"artisan/internal/resilience"
	"artisan/internal/spec"
	"artisan/internal/telemetry"
	"artisan/internal/topology"
)

// Simulator wraps the MNA engine as a tool: it runs the metric
// extraction on a netlist and counts invocations, which drives the
// evaluation's modeled wall-clock time.
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

// tuneBudget caps the tuner's simulator evaluations. 53 is 12
// Latin-hypercube samples, 40 BO iterations and one re-measure: the
// spend the agent-tuning table's success bar was set against.
const tuneBudget = 53

// Tuner is the parameter-tuning tool [14]: it tunes the continuous
// parameters (stage and connection gm/R/C values) of a fixed topology to
// maximize the spec-constrained figure of merit, through one sizing
// backend and its degradation ladder.
type Tuner struct {
	Sim *Simulator
	// Backend names the sizing backend ("bo", "ga", "whitebox",
	// "hybrid"); NewTuner sets backend.DefaultName.
	Backend string
	// OnDegrade, when non-nil, observes each degradation hop of the
	// backend ladder (sessions record it in the transcript, mirroring
	// the fallback-model resilience pattern).
	OnDegrade func(from, to string, err error)
	seed      int64
}

// NewTuner returns the tuning tool sharing the session simulator (so its
// evaluations are counted).
func NewTuner(sim *Simulator, seed int64) *Tuner {
	return &Tuner{Sim: sim, Backend: backend.DefaultName, seed: seed}
}

// Tune runs the tuner's sizing backend over the topology's ±4× log
// parameter space, degrading down the backend ladder on failure. The
// result names the backend that won and the evaluations it spent.
func (t *Tuner) Tune(ctx context.Context, topo *topology.Topology, sp spec.Spec) (*backend.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, span := telemetry.StartSpan(ctx, "tool.tuner")
	defer span.End()
	span.SetAttr("backend", t.Backend)
	p := backend.Problem{
		Spec: sp, Topo: topo, Budget: tuneBudget,
		Eval: func(ctx context.Context, tp *topology.Topology) (measure.Report, error) {
			// Routing through the session simulator keeps the evaluations
			// counted (and fault-injected) exactly like every other
			// measurement.
			return t.Sim.MeasureTopology(ctx, tp, sp)
		},
	}
	return backend.SizeLadder(ctx, t.Backend, p, t.seed, t.OnDegrade)
}

// describeFailure renders spec violations as the natural-language failure
// report the prompter feeds back to the LLM (the Fig. 7 Q9 phrasing).
func describeFailure(sp spec.Spec, rep measure.Report) string {
	vs := sp.Check(rep)
	var parts []string
	if rep.PoleZeroErr != "" {
		// Distinguish "verified unstable" from "stability unknown": the
		// simulator's pole find failed, so the stability verdict below
		// is not evidence about the circuit.
		parts = append(parts, fmt.Sprintf("pole extraction failed (%s), stability is unverified", rep.PoleZeroErr))
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
