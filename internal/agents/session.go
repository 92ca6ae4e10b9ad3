package agents

import (
	"context"
	"fmt"

	"artisan/internal/backend"
	"artisan/internal/design"
	"artisan/internal/llm"
	"artisan/internal/measure"
	"artisan/internal/netlist"
	"artisan/internal/resilience"
	"artisan/internal/spec"
	"artisan/internal/telemetry"
	"artisan/internal/topology"
)

// Options configures a design session.
type Options struct {
	// TreeWidth is the number of architecture candidates the ToT decision
	// expands and verifies; 1 reproduces the paper's single-shot flow,
	// larger widths are the verification-selected ToT ablation.
	TreeWidth int
	// MaxModifications bounds the second ToT decision point (redesign
	// after failed verification).
	MaxModifications int
	// Tune enables the parameter-tuning tool (the sizing backend named
	// by SizingBackend) as a last resort.
	Tune bool
	// SizingBackend selects the sizing backend used when Tune fires
	// ("bo", "ga", "whitebox", "hybrid"). Empty means
	// backend.DefaultName.
	SizingBackend string
}

// DefaultOptions reproduces the paper's flow: one architecture, one
// modification round, no tuning.
func DefaultOptions() Options {
	return Options{TreeWidth: 1, MaxModifications: 1, Tune: false}
}

// Resilience configures the session's fault-tolerance ladder. Nil on the
// Session means fail-fast: every tool and model call gets exactly one
// attempt, reproducing the paper's idealized flow.
type Resilience struct {
	// Retry guards the designer decisions and the simulator path. The
	// zero value means single attempts.
	Retry resilience.RetryPolicy
	// Breaker, when non-nil, guards the simulator and sizer backends: a
	// failure streak short-circuits further calls until the cooldown.
	Breaker *resilience.Breaker
	// Fallback is the degradation ladder's last rung: when the primary
	// designer keeps failing ProposeArchitectures/ProposeKnobs after
	// retries, the session degrades to this model (in production the
	// deterministic retrieval model) and records the degradation in the
	// transcript and outcome.
	Fallback llm.DesignerModel
	// Counters receives every resilience event; allocated on first use
	// when nil.
	Counters *resilience.Counters
}

// Outcome is the result of a session.
type Outcome struct {
	Success    bool
	Arch       string
	Design     *design.Result
	Report     measure.Report
	Netlist    *netlist.Netlist
	Topology   *topology.Topology
	Transcript *Transcript
	SimCount   int
	QACount    int
	FailReason string
	// Degraded reports that the session fell back to the Resilience
	// fallback model after the primary designer's repeated failures.
	Degraded bool
	// Resilience snapshots the session's fault-tolerance counters
	// (zero-valued when no ladder was configured).
	Resilience resilience.Snapshot
	// SizingBackend names the sizing backend that produced the tuner's
	// result (after any ladder degradation); empty when the tuner did not
	// run or no backend returned a result.
	SizingBackend string
	// SizingEvals counts the simulator evaluations the sizing backend
	// consumed.
	SizingEvals int
}

// FoM returns the achieved figure of merit under the session spec.
func (o *Outcome) FoM(sp spec.Spec) float64 { return sp.FoMOf(o.Report) }

// Session drives one complete opamp design: the hierarchical process of
// Fig. 4 executed as the multi-agent QA loop of Fig. 5.
type Session struct {
	Designer llm.DesignerModel
	Prompter *Prompter
	Spec     spec.Spec
	Opts     Options
	Sim      *Simulator
	Tuner    *Tuner
	// Res, when non-nil, enables the fault-tolerance ladder: retries with
	// backoff around designer and simulator calls, a circuit breaker on
	// the simulator/sizer backends, and graceful degradation to a
	// fallback designer.
	Res *Resilience
}

// NewSession builds a session for a designer model and spec. The default
// prompter asks the canonical questions; set Prompter for generative
// rephrasing.
func NewSession(m llm.DesignerModel, sp spec.Spec, opts Options) *Session {
	sim := NewSimulator()
	t := NewTuner(sim, 1)
	if opts.SizingBackend != "" {
		t.Backend = opts.SizingBackend
	}
	return &Session{Designer: m, Prompter: NewPrompter(1, 0), Spec: sp, Opts: opts,
		Sim: sim, Tuner: t}
}

// counters returns the session's resilience counters, allocating them on
// first use; nil when no resilience is configured.
func (s *Session) counters() *resilience.Counters {
	if s.Res == nil {
		return nil
	}
	if s.Res.Counters == nil {
		s.Res.Counters = &resilience.Counters{}
	}
	return s.Res.Counters
}

// retryDo runs fn under the session retry policy, or once when no
// resilience is configured.
func (s *Session) retryDo(ctx context.Context, op string, fn func(context.Context) error) error {
	if s.Res == nil {
		return fn(ctx)
	}
	p := s.Res.Retry
	if p.Counters == nil {
		p.Counters = s.counters()
	}
	return p.Do(ctx, op, fn)
}

// measure runs one simulator measurement through the breaker (when
// configured) and the retry policy, so transient simulator faults are
// retried and a failure streak opens the circuit instead of hammering a
// broken backend.
func (s *Session) measure(ctx context.Context, nl *netlist.Netlist) (measure.Report, error) {
	var rep measure.Report
	err := s.retryDo(ctx, "simulator", func(ctx context.Context) error {
		var breaker *resilience.Breaker
		if s.Res != nil {
			breaker = s.Res.Breaker
		}
		return breaker.Do(ctx, "simulator", func(ctx context.Context) error {
			r, err := s.Sim.MeasureNetlist(ctx, nl)
			if err == nil {
				rep = r
			}
			return err
		})
	})
	return rep, err
}

// Run executes the session. The returned outcome always carries the
// transcript, even on failure (the failed GPT-4/Llama2 logs of Fig. 7 are
// exactly such transcripts). Cancellation of ctx — a killed job, an
// expired deadline — aborts the flow at the next stage boundary and
// returns the context's error wrapped; no outcome is fabricated for a
// caller that has gone away.
func (s *Session) Run(ctx context.Context) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var span *telemetry.Span
	ctx, span = telemetry.StartSpan(ctx, "agents.session")
	span.SetAttr("model", s.Designer.Name())
	span.SetAttr("spec", s.Spec.Name)
	defer span.End()
	tr := &Transcript{Model: s.Designer.Name()}
	out := &Outcome{Transcript: tr}
	fail := func(reason string) (*Outcome, error) {
		out.FailReason = reason
		out.SimCount = s.Sim.Invocations
		out.QACount = tr.QACount()
		out.Resilience = s.counters().Snapshot()
		tr.Add(RoleVerdict, "session failed: "+reason)
		return out, nil
	}
	degrade := func(stage string, err error) {
		out.Degraded = true
		tr.Add(RoleTool, fmt.Sprintf("[resilience] %s degraded to fallback model %s: %v",
			stage, s.Res.Fallback.Name(), err))
	}

	// --- ToT decision point 1: architecture selection ---
	width := s.Opts.TreeWidth
	if width < 1 {
		width = 1
	}
	choices, err := s.proposeArchitectures(ctx, width, degrade)
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("agents: session cancelled: %w", cerr)
	}
	if err != nil {
		tr.QA(s.Spec.Prompt(), "(no viable architecture proposed) "+err.Error())
		return fail("architecture selection failed: " + err.Error())
	}
	for _, c := range choices {
		tr.Add(RoleDecision, fmt.Sprintf("candidate %s (score %.2f): %s", c.Arch, c.Score, c.Rationale))
	}

	type attempt struct {
		res    *design.Result
		rep    measure.Report
		nl     *netlist.Netlist
		ok     bool
		arch   string
		reason string
	}
	runFlow := func(arch string) (*attempt, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		knobs, err := s.proposeKnobs(ctx, arch, degrade)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			return &attempt{arch: arch, reason: err.Error()}, nil
		}
		_, cotSpan := telemetry.StartSpan(ctx, "cot.design")
		cotSpan.SetAttr("arch", arch)
		res, err := design.Design(arch, s.Spec, knobs)
		cotSpan.End()
		if err != nil {
			return &attempt{arch: arch, reason: err.Error()}, nil
		}
		// Weave the CoT steps into the session transcript; the prompter
		// phrases each scheduled question (Eq. 4).
		for _, st := range res.Steps {
			tr.QA(s.Prompter.Next(st.Question), st.Answer)
			for j, f := range st.Formulas {
				tr.ToolCall("calculator", f, st.Results[j])
			}
		}
		env := topology.DefaultEnv()
		env.CL, env.RL = s.Spec.CL, s.Spec.RL
		nl, err := res.Topo.Elaborate(env)
		if err != nil {
			return &attempt{arch: arch, res: res, reason: err.Error()}, nil
		}
		rep, err := s.measure(ctx, nl)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			return &attempt{arch: arch, res: res, nl: nl, reason: err.Error()}, nil
		}
		tr.ToolCall("simulator", arch+" behavioral netlist", rep.String())
		a := &attempt{res: res, rep: rep, nl: nl, arch: arch, ok: s.Spec.Satisfied(rep)}
		if !a.ok {
			a.reason = spec.Describe(s.Spec.Check(rep))
		}
		tr.Add(RoleVerdict, spec.Describe(s.Spec.Check(rep)))
		return a, nil
	}

	// Expand the tree: verify each candidate, keep the best.
	var best *attempt
	for _, c := range choices {
		a, err := runFlow(c.Arch)
		if err != nil {
			return nil, fmt.Errorf("agents: session aborted: %w", err)
		}
		if best == nil || (a.ok && !best.ok) ||
			(a.ok == best.ok && a.rep.GBW > 0 && spec.Score(s.Spec, a.rep) > spec.Score(s.Spec, best.rep)) {
			best = a
		}
		if a.ok && width == 1 {
			break
		}
	}
	if best == nil || best.res == nil {
		reason := "design flow could not be executed"
		if best != nil && best.reason != "" {
			reason = best.reason
		}
		tr.QA("Please carry out the design flow step by step.",
			"(the model cannot execute the methodological multi-step flow) "+reason)
		return fail(reason)
	}

	// --- ToT decision point 2: modification after failed verification ---
	for iter := 0; iter < s.Opts.MaxModifications && !best.ok; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("agents: session cancelled: %w", err)
		}
		failure := describeFailure(s.Spec, best.rep)
		mod, err := s.proposeModification(ctx, failure)
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("agents: session cancelled: %w", err)
			}
			tr.QA("The design fails verification: "+failure+" How to modify the architecture?",
				"(no modification strategy) "+err.Error())
			break
		}
		tr.QA(s.Prompter.Next("The design fails verification: "+failure+" How to modify the architecture?"), mod.Rationale)
		if mod.NewArch == "" {
			break
		}
		if !knownArch(mod.NewArch) {
			tr.Add(RoleVerdict, fmt.Sprintf("suggested architecture %s has no executable design procedure", mod.NewArch))
			break
		}
		a, err := runFlow(mod.NewArch)
		if err != nil {
			return nil, fmt.Errorf("agents: session aborted: %w", err)
		}
		if a.res != nil && (a.ok || spec.Score(s.Spec, a.rep) > spec.Score(s.Spec, best.rep)) {
			best = a
		}
	}

	// --- Last resort: the parameter-tuning tool ---
	if !best.ok && s.Opts.Tune && best.res != nil && ctx.Err() == nil {
		tr.Add(RoleTool, fmt.Sprintf("[tuner] invoking %s sizing backend", s.Tuner.Backend))
		// Record ladder degradation in the transcript, mirroring the
		// fallback-model resilience pattern.
		s.Tuner.OnDegrade = func(from, to string, err error) {
			tr.Add(RoleTool, fmt.Sprintf("[resilience] sizing backend %s degraded to fallback %s: %v", from, to, err))
		}
		res, err := s.tune(ctx, best.res.Topo)
		if res != nil {
			out.SizingBackend = res.Backend
			out.SizingEvals = res.Evals
		}
		if err == nil {
			tr.ToolCall("tuner", "tune "+best.arch, res.Report.String())
			if res.Success || res.Score > spec.Score(s.Spec, best.rep) {
				best.res.Topo = res.Topo
				best.rep = res.Report
				best.ok = res.Success
				env := topology.DefaultEnv()
				env.CL, env.RL = s.Spec.CL, s.Spec.RL
				if nl, err := res.Topo.Elaborate(env); err == nil {
					best.nl = nl
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("agents: session cancelled: %w", err)
	}

	out.Success = best.ok
	out.Arch = best.arch
	out.Design = best.res
	out.Report = best.rep
	out.Netlist = best.nl
	out.Topology = best.res.Topo
	out.SimCount = s.Sim.Invocations
	out.QACount = tr.QACount()
	out.Resilience = s.counters().Snapshot()
	if !best.ok {
		out.FailReason = best.reason
		tr.Add(RoleVerdict, "session failed: "+best.reason)
	} else {
		tr.QA("Design completed. Please give the final netlist.",
			"The final netlist with parameters instantiated is as follows...\n"+best.nl.String())
	}
	return out, nil
}

// proposeArchitectures is the first rung of the degradation ladder:
// retried primary designer, then the fallback model.
func (s *Session) proposeArchitectures(ctx context.Context, width int, degrade func(string, error)) ([]llm.ArchChoice, error) {
	ctx, span := telemetry.StartSpan(ctx, "llm.propose_architectures")
	defer span.End()
	var primaryErr error
	primary := func(ctx context.Context) ([]llm.ArchChoice, error) {
		var cs []llm.ArchChoice
		err := s.retryDo(ctx, "ProposeArchitectures", func(ctx context.Context) error {
			var err error
			cs, err = s.Designer.ProposeArchitectures(ctx, s.Spec, width)
			return err
		})
		primaryErr = err
		return cs, err
	}
	if s.Res == nil || s.Res.Fallback == nil {
		return primary(ctx)
	}
	cs, err := resilience.Fallback(ctx, s.counters(), primary,
		func(ctx context.Context) ([]llm.ArchChoice, error) {
			return s.Res.Fallback.ProposeArchitectures(ctx, s.Spec, width)
		})
	if err == nil && primaryErr != nil {
		degrade("architecture selection", primaryErr)
	}
	return cs, err
}

// proposeKnobs mirrors proposeArchitectures for the CoT design knobs.
func (s *Session) proposeKnobs(ctx context.Context, arch string, degrade func(string, error)) (design.Knobs, error) {
	ctx, span := telemetry.StartSpan(ctx, "llm.propose_knobs")
	span.SetAttr("arch", arch)
	defer span.End()
	var primaryErr error
	primary := func(ctx context.Context) (design.Knobs, error) {
		var k design.Knobs
		err := s.retryDo(ctx, "ProposeKnobs", func(ctx context.Context) error {
			var err error
			k, err = s.Designer.ProposeKnobs(ctx, arch, s.Spec)
			return err
		})
		primaryErr = err
		return k, err
	}
	if s.Res == nil || s.Res.Fallback == nil {
		return primary(ctx)
	}
	k, err := resilience.Fallback(ctx, s.counters(), primary,
		func(ctx context.Context) (design.Knobs, error) {
			return s.Res.Fallback.ProposeKnobs(ctx, arch, s.Spec)
		})
	if err == nil && primaryErr != nil {
		degrade("knob derivation for "+arch, primaryErr)
	}
	return k, err
}

// proposeModification retries the second ToT decision; there is no
// fallback here — a session that cannot modify simply keeps its best
// attempt, which is already graceful.
func (s *Session) proposeModification(ctx context.Context, failure string) (llm.Modification, error) {
	ctx, span := telemetry.StartSpan(ctx, "llm.propose_modification")
	defer span.End()
	var mod llm.Modification
	err := s.retryDo(ctx, "ProposeModification", func(ctx context.Context) error {
		var err error
		mod, err = s.Designer.ProposeModification(ctx, s.Spec, failure)
		return err
	})
	return mod, err
}

// tune runs the tuner through the breaker so a broken simulator backend
// opens the circuit instead of burning the tuning budget.
func (s *Session) tune(ctx context.Context, topo *topology.Topology) (*backend.Result, error) {
	var breaker *resilience.Breaker
	if s.Res != nil {
		breaker = s.Res.Breaker
	}
	var res *backend.Result
	err := breaker.Do(ctx, "sizer", func(ctx context.Context) error {
		var err error
		res, err = s.Tuner.Tune(ctx, topo, s.Spec)
		return err
	})
	return res, err
}

func knownArch(name string) bool {
	for _, a := range design.Architectures() {
		if a == name {
			return true
		}
	}
	return false
}
