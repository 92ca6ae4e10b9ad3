package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"artisan/internal/agents"
	"artisan/internal/jobs"
	"artisan/internal/llm"
	"artisan/internal/measure"
	"artisan/internal/opt"
	"artisan/internal/resilience"
	"artisan/internal/spec"
	"artisan/internal/telemetry"
	"artisan/internal/units"
)

// Method identifies one compared system.
type Method string

// The five methods of Table 3.
const (
	MethodBOBO    Method = "BOBO"
	MethodRLBO    Method = "RLBO"
	MethodGPT4    Method = "GPT-4"
	MethodLlama2  Method = "Llama2"
	MethodArtisan Method = "Artisan"
	// MethodGA is an extension comparator (genetic topology search, the
	// third black-box family the paper's introduction cites); it is not
	// part of the Table 3 defaults.
	MethodGA Method = "GA"
)

// AllMethods returns the Table 3 row order.
func AllMethods() []Method {
	return []Method{MethodBOBO, MethodRLBO, MethodGPT4, MethodLlama2, MethodArtisan}
}

// Config controls the harness.
type Config struct {
	Trials      int // repetitions per cell (paper: 10)
	Seed        int64
	Budget      int     // baseline simulation budget per run (paper-scale: 250)
	Temperature float64 // Artisan-LLM operating temperature
	Methods     []Method
	Groups      []string // subset of G-1..G-5; empty = all
	Cost        CostModel
	// Workers bounds how many trials run at once (values below 1 mean
	// one). Per-trial seeds are derived from (Seed, trial index, group),
	// never from execution order, so every worker count produces
	// byte-identical Table 3 cells.
	Workers int
	// FaultRate, when positive, runs the Artisan trials in chaos mode:
	// every designer call fails with that probability (seeded per trial,
	// so the chaotic sweep is reproducible) and the session runs with
	// the resilience ladder — retries plus fallback to the deterministic
	// retrieval model — that production uses. The acceptance bar is that
	// Table 3 success rates stay within the no-fault band.
	FaultRate float64
}

// DefaultConfig reproduces the paper's protocol.
func DefaultConfig(seed int64) Config {
	return Config{
		Trials: 10, Seed: seed, Budget: 250, Temperature: 0.22,
		Methods: AllMethods(), Cost: DefaultCostModel(),
	}
}

// Cell is one (method, group) entry of Table 3: aggregate over trials.
type Cell struct {
	Method    Method
	Group     string
	Trials    int
	Successes int
	// Means over successful trials (the paper reports averages of the
	// achieved metrics).
	Gain, GBW, PM, Power, FoM float64
	// Time is the mean modeled wall-clock per trial (0 for the LLM
	// baselines, which cannot execute the flow at all — the paper prints
	// "-" there).
	Time time.Duration
}

// SuccessRate renders "k/n".
func (c Cell) SuccessRate() string { return fmt.Sprintf("%d/%d", c.Successes, c.Trials) }

// Table3 is the full comparison. Cells carry the modeled (cost-model)
// times and stay comparable structs; the measured, trace-derived phase
// breakdowns live here, keyed by "method|group", because they are
// wall-clock observations that differ run to run.
type Table3 struct {
	Cells  []Cell
	Cfg    Config
	Phases map[string]PhaseTimes
}

// addPhases stores a cell's measured breakdown, if any.
func (t *Table3) addPhases(m Method, group string, pt PhaseTimes) {
	if len(pt) == 0 {
		return
	}
	if t.Phases == nil {
		t.Phases = map[string]PhaseTimes{}
	}
	t.Phases[phaseKey(m, group)] = pt
}

// Run executes the comparison. Trials fan out over max(cfg.Workers, 1)
// workers and aggregate in (method, group, trial) order. Cancellation
// stops the sweep, between trials and mid-trial inside the optimizers
// and agent sessions, and returns the context's error instead of a
// partial table.
func Run(ctx context.Context, cfg Config) (*Table3, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("experiment: trials must be >= 1")
	}
	if len(cfg.Methods) == 0 {
		cfg.Methods = AllMethods()
	}
	groups, err := selectGroups(cfg.Groups)
	if err != nil {
		return nil, err
	}
	// The off-the-shelf LLM baselines ignore the trial seed, so each of
	// their cells runs one trial whose result stands for every trial.
	runs := func(m Method) int {
		if m == MethodGPT4 || m == MethodLlama2 {
			return 1
		}
		return cfg.Trials
	}
	var tasks []trialTask
	for _, m := range cfg.Methods {
		for _, g := range groups {
			for i := 0; i < runs(m); i++ {
				tasks = append(tasks, trialTask{m: m, g: g, seed: trialSeed(cfg.Seed, i, g.Name)})
			}
		}
	}
	results, err := jobs.Map(ctx, max(cfg.Workers, 1), tasks,
		func(ctx context.Context, t trialTask) (trialResult, error) {
			tr, err := runTrial(ctx, t.m, t.g, cfg, t.seed)
			if err != nil {
				return trialResult{}, fmt.Errorf("experiment: %s on %s: %w", t.m, t.g.Name, err)
			}
			return tr, nil
		})
	if err != nil {
		return nil, err
	}
	t3 := &Table3{Cfg: cfg}
	next := 0
	for _, m := range cfg.Methods {
		for _, g := range groups {
			n := runs(m)
			cell := make([]trialResult, cfg.Trials)
			for i := range cell {
				cell[i] = results[next+i%n]
			}
			next += n
			t3.Cells = append(t3.Cells, aggregateCell(m, g, cfg, cell))
			t3.addPhases(m, g.Name, meanPhases(cell))
		}
	}
	return t3, nil
}

// selectGroups resolves a configured group subset; empty selects every
// Table 2 group.
func selectGroups(names []string) ([]spec.Spec, error) {
	if len(names) == 0 {
		return spec.Groups(), nil
	}
	var sel []spec.Spec
	for _, name := range names {
		g, err := spec.Group(name)
		if err != nil {
			return nil, err
		}
		sel = append(sel, g)
	}
	return sel, nil
}

// trialTask addresses one (method, group, trial) unit of the sweep.
type trialTask struct {
	m    Method
	g    spec.Spec
	seed int64
}

type trialResult struct {
	ok   bool
	rep  measure.Report
	time time.Duration
	// phases is the measured trace-derived breakdown; nil for the
	// black-box baselines, whose spans land on the sweep's own tracer.
	phases PhaseTimes
}

// trialSeed derives the deterministic per-trial seed; it depends only on
// the configured seed, trial index, and group — never execution order.
func trialSeed(base int64, trial int, group string) int64 {
	return base + int64(trial)*1009 + hashGroup(group)
}

// aggregateCell folds trial results into one Table 3 cell.
func aggregateCell(m Method, g spec.Spec, cfg Config, results []trialResult) Cell {
	cell := Cell{Method: m, Group: g.Name, Trials: cfg.Trials}
	var tsum time.Duration
	for _, r := range results {
		tsum += r.time
		if !r.ok {
			continue
		}
		cell.Successes++
		cell.Gain += r.rep.GainDB
		cell.GBW += r.rep.GBW
		cell.PM += r.rep.PM
		cell.Power += r.rep.Power
		cell.FoM += g.FoMOf(r.rep)
	}
	if cell.Successes > 0 {
		n := float64(cell.Successes)
		cell.Gain /= n
		cell.GBW /= n
		cell.PM /= n
		cell.Power /= n
		cell.FoM /= n
	}
	cell.Time = tsum / time.Duration(cfg.Trials)
	return cell
}

func runTrial(ctx context.Context, m Method, g spec.Spec, cfg Config, seed int64) (trialResult, error) {
	if err := ctx.Err(); err != nil {
		return trialResult{}, err
	}
	switch m {
	case MethodBOBO:
		res, err := opt.BOBO(ctx, g, cfg.Budget, seed)
		if err != nil {
			return trialResult{}, err
		}
		return trialResult{ok: res.Success, rep: res.Report,
			time: cfg.Cost.BOBOTime(res.Sims)}, nil
	case MethodRLBO:
		res, err := opt.RLBO(ctx, g, cfg.Budget, seed)
		if err != nil {
			return trialResult{}, err
		}
		return trialResult{ok: res.Success, rep: res.Report,
			time: cfg.Cost.RLBOTime(res.Sims)}, nil
	case MethodGA:
		res, err := opt.GA(ctx, g, cfg.Budget, seed, opt.DefaultGAOpts())
		if err != nil {
			return trialResult{}, err
		}
		// GA's per-simulation overhead is negligible next to the sims.
		return trialResult{ok: res.Success, rep: res.Report,
			time: time.Duration(res.Sims) * cfg.Cost.SpectreSim}, nil
	case MethodGPT4, MethodLlama2:
		var model llm.DesignerModel
		if m == MethodGPT4 {
			model = llm.NewGPT4Model()
		} else {
			model = llm.NewLlama2Model()
		}
		tracer := telemetry.NewTracer(1)
		out, err := agents.NewSession(model, g, agents.DefaultOptions()).
			Run(telemetry.WithTracer(ctx, tracer))
		if err != nil {
			return trialResult{}, err
		}
		// The paper prints "-" for time: the off-the-shelf LLMs never
		// complete a run.
		return trialResult{ok: out.Success, rep: out.Report,
			phases: phasesFromTrace(tracer.Traces())}, nil
	case MethodArtisan:
		var designer llm.DesignerModel = llm.NewDomainModel(seed, cfg.Temperature)
		sess := agents.NewSession(designer, g, agents.DefaultOptions())
		if cfg.FaultRate > 0 {
			inj := resilience.NewInjector(resilience.InjectorConfig{
				Seed: seed, ErrorRate: cfg.FaultRate})
			sess.Designer = llm.NewChaosDesigner(designer, inj)
			sess.Res = &agents.Resilience{
				Retry: resilience.RetryPolicy{MaxAttempts: 4,
					BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: seed},
				Fallback: llm.NewDomainModel(seed, 0),
			}
		}
		// Each trial gets its own single-slot tracer: the recorded session
		// span tree becomes the cell's measured phase breakdown.
		tracer := telemetry.NewTracer(1)
		out, err := sess.Run(telemetry.WithTracer(ctx, tracer))
		if err != nil {
			return trialResult{}, err
		}
		return trialResult{ok: out.Success, rep: out.Report,
			time:   cfg.Cost.ArtisanTime(out.SimCount, out.QACount, out.Success),
			phases: phasesFromTrace(tracer.Traces())}, nil
	}
	return trialResult{}, fmt.Errorf("unknown method %q", m)
}

func hashGroup(name string) int64 {
	h := int64(0)
	for _, r := range name {
		h = h*131 + int64(r)
	}
	return h
}

// Cell lookup.
func (t *Table3) Cell(m Method, group string) (Cell, bool) {
	for _, c := range t.Cells {
		if c.Method == m && c.Group == group {
			return c, true
		}
	}
	return Cell{}, false
}

// Speedup returns how much faster Artisan ran than the given baseline on
// a group (the paper's headline 20.4–50.1×).
func (t *Table3) Speedup(baseline Method, group string) float64 {
	a, ok1 := t.Cell(MethodArtisan, group)
	b, ok2 := t.Cell(baseline, group)
	if !ok1 || !ok2 || a.Time == 0 {
		return 0
	}
	return float64(b.Time) / float64(a.Time)
}

// String renders Table 3 in the paper's layout.
func (t *Table3) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: performance comparison (%d trials/cell, baseline budget %d sims)\n",
		t.Cfg.Trials, t.Cfg.Budget)
	fmt.Fprintf(&b, "%-8s %-5s %7s %9s %10s %8s %10s %9s %10s\n",
		"Method", "Exps", "Succ.", "Gain(dB)", "GBW(MHz)", "PM(°)", "Power(µW)", "FoM", "Time")
	for _, c := range t.Cells {
		if c.Successes == 0 {
			tm := "-"
			if c.Time > 0 {
				tm = fmtDur(c.Time)
			}
			fmt.Fprintf(&b, "%-8s %-5s %7s %9s %10s %8s %10s %9s %10s\n",
				c.Method, c.Group, c.SuccessRate(), "fail", "fail", "fail", "fail", "fail", tm)
			continue
		}
		fmt.Fprintf(&b, "%-8s %-5s %7s %9.1f %10.2f %8.2f %10.1f %9.1f %10s\n",
			c.Method, c.Group, c.SuccessRate(), c.Gain, c.GBW/1e6, c.PM,
			c.Power*1e6, c.FoM, fmtDur(c.Time))
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	if d >= time.Hour {
		return fmt.Sprintf("%.2fh", d.Hours())
	}
	return fmt.Sprintf("%.2fm", d.Minutes())
}

// FormatReport renders one measured report compactly (used by cmds).
func FormatReport(g spec.Spec, rep measure.Report) string {
	return fmt.Sprintf("Gain=%.1fdB GBW=%sHz PM=%.1f° Power=%sW FoM=%.1f",
		rep.GainDB, units.Format(rep.GBW), rep.PM, units.Format(rep.Power), g.FoMOf(rep))
}
