// Package core is the Artisan framework itself — the paper's primary
// contribution. It wires the pieces into the Fig. 2 workflow: given
// user-defined specs, the multi-agent session recommends an architecture
// (ToT), runs the methodological design flow (CoT with calculator and
// simulator tools), verifies against the specs, applies topological
// modifications on failure, optionally invokes the parameter-tuning tool,
// and finally maps the behavioral design to the transistor level with the
// gm/Id scripts.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"artisan/internal/agents"
	"artisan/internal/backend"
	"artisan/internal/corpus"
	"artisan/internal/gmid"
	"artisan/internal/llm"
	"artisan/internal/resilience"
	"artisan/internal/spec"
	"artisan/internal/telemetry"
	"artisan/internal/units"
)

// Artisan is a configured instance of the framework.
type Artisan struct {
	Model llm.DesignerModel
	Opts  agents.Options
	Tech  gmid.Tech
	Plan  gmid.StagePlan
	// Res, when non-nil, is the fault-tolerance ladder every session runs
	// with: retries, circuit breaker, fallback designer.
	Res *agents.Resilience
	// Faults, when non-nil, runs every session in chaos mode: the
	// designer and the simulator share this seeded injector.
	Faults *resilience.Injector
}

// New returns an Artisan driven by the knowledge-engine Artisan-LLM at
// the standard operating temperature.
func New(seed int64) *Artisan {
	return NewWithModel(llm.NewDomainModel(seed, 0.22))
}

// NewWithModel returns an Artisan driven by any designer model (used to
// run the GPT-4/Llama2 baselines through the identical workflow).
func NewWithModel(m llm.DesignerModel) *Artisan {
	return &Artisan{
		Model: m,
		Opts:  agents.DefaultOptions(),
		Tech:  gmid.Default180nm(),
		Plan:  gmid.DefaultStagePlan(),
	}
}

// Output is the complete design result: the behavioral outcome of the
// multi-agent session plus the transistor-level mapping.
type Output struct {
	*agents.Outcome
	Spec       spec.Spec
	Transistor *gmid.Netlist
}

// Design runs the full workflow for a spec. Cancelling ctx aborts the
// session at the next stage boundary. When the context carries a
// telemetry.Tracer, the whole run is traced: a "core.design" root span
// with children for the agent session, tool invocations, MNA solves,
// and BO sizing.
func (a *Artisan) Design(ctx context.Context, sp spec.Spec) (*Output, error) {
	var span *telemetry.Span
	ctx, span = telemetry.StartSpan(ctx, "core.design")
	span.SetAttr("spec", sp.Name)
	defer span.End()
	session := agents.NewSession(a.Model, sp, a.Opts)
	session.Res = a.Res
	if a.Faults != nil {
		session.Designer = llm.NewChaosDesigner(a.Model, a.Faults)
		session.Sim.Faults = a.Faults
	}
	out, err := session.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res := &Output{Outcome: out, Spec: sp}
	if out.Success && out.Topology != nil {
		_, mapSpan := telemetry.StartSpan(ctx, "gmid.map")
		tn, err := gmid.Map(a.Tech, a.Plan, out.Topology, sp.VDD)
		mapSpan.End()
		if err != nil {
			// The behavioral design stands even if a corner-case mapping
			// fails; record it in the transcript instead of failing.
			out.Transcript.Add(agents.RoleVerdict, "gm/Id mapping failed: "+err.Error())
		} else {
			res.Transistor = tn
			if !a.Opts.NoTranscript {
				out.Transcript.Add(agents.RoleTool,
					fmt.Sprintf("[gm/Id] mapped to %d transistors, %s total bias",
						len(tn.Devices), units.Format(tn.ITotal)))
			}
		}
	}
	return res, nil
}

// DesignPrompt parses a natural-language spec request (the Q0 format of
// Fig. 7) and runs the workflow.
func (a *Artisan) DesignPrompt(ctx context.Context, prompt string) (*Output, error) {
	sp, err := ParsePrompt(prompt)
	if err != nil {
		return nil, err
	}
	return a.Design(ctx, sp)
}

// ParsePrompt extracts a Spec from a natural-language request like
// "design an opamp with gain >85dB, PM >55°, GBW >0.7MHz, Power <250uW
// and CL = 10pF". Unstated fields take the paper's defaults (RL = 1 MΩ,
// VDD = 1.8 V).
func ParsePrompt(prompt string) (spec.Spec, error) {
	sp := spec.Spec{Name: "custom", RL: 1e6, VDD: 1.8}
	low := strings.ToLower(prompt)
	var err error
	if sp.MinGainDB, err = numberNear(low, []string{"gain"}); err != nil {
		return sp, fmt.Errorf("core: %w", err)
	}
	if sp.MinGBW, err = numberNear(low, []string{"gbw", "bandwidth"}); err != nil {
		return sp, fmt.Errorf("core: %w", err)
	}
	if sp.MinPM, err = numberNear(low, []string{"pm", "phase margin"}); err != nil {
		return sp, fmt.Errorf("core: %w", err)
	}
	if sp.MaxPower, err = numberNear(low, []string{"power"}); err != nil {
		return sp, fmt.Errorf("core: %w", err)
	}
	if sp.CL, err = numberNear(low, []string{"cl", "load"}); err != nil {
		return sp, fmt.Errorf("core: %w", err)
	}
	if sp.MinGainDB < 20 || sp.MinGainDB > 200 {
		return sp, fmt.Errorf("core: implausible gain spec %g dB", sp.MinGainDB)
	}
	if sp.CL <= 0 || sp.CL > 1e-6 {
		return sp, fmt.Errorf("core: implausible load %g F", sp.CL)
	}
	return sp, nil
}

// numberNear finds the first engineering value following any of the
// keywords (skipping relational symbols and filler).
func numberNear(low string, keys []string) (float64, error) {
	for _, key := range keys {
		i := strings.Index(low, key)
		if i < 0 {
			continue
		}
		rest := low[i+len(key):]
		fields := strings.FieldsFunc(rest, func(r rune) bool {
			return r == ' ' || r == '>' || r == '<' || r == '=' || r == ',' || r == ':'
		})
		for j, f := range fields {
			if j > 3 {
				break // value should be adjacent to the keyword
			}
			f = strings.Trim(f, ".;)")
			if v, err := units.Parse(f); err == nil {
				return v, nil
			}
		}
	}
	return 0, fmt.Errorf("no value found for %v in prompt", keys)
}

const maxTreeWidth = 4 // bound on the client-requested ToT width

// Request is the POST /design and POST /jobs body (and one item of a
// POST /design/batch), which nodes and the router both resolve.
type Request struct {
	Group  string `json:"group,omitempty"`
	Prompt string `json:"prompt,omitempty"`
	// Spec is a full custom specification in the GET /groups wire form,
	// strictly decoded and range-validated by spec.ParseJSON. It takes
	// precedence over Group and Prompt.
	Spec        json.RawMessage `json:"spec,omitempty"`
	Seed        int64           `json:"seed,omitempty"`
	Temperature float64         `json:"temperature,omitempty"`
	TreeWidth   int             `json:"treeWidth,omitempty"`
	Tune        bool            `json:"tune,omitempty"`
	Transcript  bool            `json:"transcript,omitempty"`
	// Verify runs the groundedness verifier over the session transcript
	// against the produced netlist and returns its report — the serving-
	// tier hook of the generative benchmark harness.
	Verify bool `json:"verify,omitempty"`
	// Backend selects the sizing backend for tuned requests ("bo", "ga",
	// "whitebox", "hybrid"). Empty takes the default Resolve is given.
	// Validated on every request, ignored unless Tune is set.
	Backend string `json:"backend,omitempty"`
}

// Resolve validates a decoded request, fills in its defaults and
// resolves its spec. An empty Backend takes defaultBackend, if set.
func (req *Request) Resolve(defaultBackend string) (spec.Spec, error) {
	var sp spec.Spec
	var err error
	switch {
	case len(req.Spec) > 0:
		sp, err = spec.ParseJSON(req.Spec)
	case req.Group != "":
		sp, err = spec.Group(req.Group)
	case req.Prompt != "":
		sp, err = ParsePrompt(req.Prompt)
	default:
		err = fmt.Errorf("provide spec, group, or prompt")
	}
	if err != nil {
		return sp, err
	}
	if req.TreeWidth < 1 {
		req.TreeWidth = 1
	}
	if req.TreeWidth > maxTreeWidth {
		return sp, fmt.Errorf("treeWidth %d exceeds limit %d", req.TreeWidth, maxTreeWidth)
	}
	if req.Temperature < 0 || req.Temperature > 1 {
		return sp, fmt.Errorf("temperature %g out of [0,1]", req.Temperature)
	}
	// Canonicalize the sizing backend so the key and the session see the
	// same resolved name regardless of which default filled it in.
	if req.Backend == "" {
		req.Backend = defaultBackend
	}
	if req.Backend == "" {
		req.Backend = backend.DefaultName
	}
	if _, err := backend.Get(req.Backend); err != nil {
		return sp, err
	}
	if !req.Tune {
		// An untuned session never runs a backend, so the name must not
		// split the key.
		req.Backend = ""
	}
	return sp, nil
}

// Key canonicalizes a resolved request for the result cache, the journal
// and the router. The spec fields, not the raw group/prompt strings, form
// the key, so a group request and the equivalent prompt share an entry.
func (req Request) Key(sp spec.Spec) string {
	return fmt.Sprintf("design|gain=%g|gbw=%g|pm=%g|pow=%g|cl=%g|rl=%g|vdd=%g|seed=%d|temp=%g|width=%d|tune=%t|chat=%t|verify=%t|backend=%s",
		sp.MinGainDB, sp.MinGBW, sp.MinPM, sp.MaxPower, sp.CL, sp.RL, sp.VDD,
		req.Seed, req.Temperature, req.TreeWidth, req.Tune, req.Transcript, req.Verify, req.Backend)
}

// TrainPipeline builds the dataset at the given scale and trains the
// knowledge-engine Artisan-LLM — the §3.4 pipeline end to end. It returns
// an Artisan driven by the trained model plus the dataset accounting and
// training report.
func TrainPipeline(scale float64, seed int64) (*Artisan, corpus.Table1, *llm.TrainReport, error) {
	cfg := corpus.DefaultConfig(seed)
	if scale > 0 {
		cfg.Scale = scale
	}
	build, err := corpus.Generate(cfg)
	if err != nil {
		return nil, corpus.Table1{}, nil, err
	}
	model, report, err := llm.Train(build.Dataset(), llm.DefaultTrainConfig(seed))
	if err != nil {
		return nil, corpus.Table1{}, nil, err
	}
	return NewWithModel(model), build.Table1(cfg.Scale), report, nil
}
