// Repository-level benchmarks: one per table and figure of the paper's
// evaluation (§4), plus ablations of the design choices called out in
// DESIGN.md. Each benchmark regenerates its artifact per iteration;
// custom metrics report the reproduction-relevant quantities (success
// counts, speedups, token totals) alongside ns/op.
//
// The full paper-scale Table 3 takes minutes; run it through
// `go run ./cmd/evaltable`. The benchmarks here use reduced budgets so
// `go test -bench=.` stays fast while exercising the identical code paths.
package artisan

import (
	"context"
	"fmt"
	"testing"

	"artisan/internal/agents"
	"artisan/internal/bench"
	"artisan/internal/core"
	"artisan/internal/corpus"
	"artisan/internal/describe"
	"artisan/internal/design"
	"artisan/internal/experiment"
	"artisan/internal/gmid"
	"artisan/internal/llm"
	"artisan/internal/measure"
	"artisan/internal/mna"
	"artisan/internal/netlist"
	"artisan/internal/opt"
	"artisan/internal/spec"
	"artisan/internal/topology"
)

// BenchmarkTable1Dataset regenerates the dataset accounting of Table 1:
// build the four splits at reduced scale and extrapolate the sample/token
// counts to paper scale.
func BenchmarkTable1Dataset(b *testing.B) {
	var lastTokens int
	for i := 0; i < b.N; i++ {
		cfg := corpus.Config{Scale: 0.002, Seed: int64(i), AugmentVariants: 4}
		build, err := corpus.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tab := build.Table1(cfg.Scale).ScaledToPaper()
		_, lastTokens = tab.Totals("Pre-training")
	}
	b.ReportMetric(float64(lastTokens)/1e6, "pretrainMtok")
}

// BenchmarkTable2Groups evaluates the spec machinery of Table 2: the five
// groups, their prompts, and the success predicate.
func BenchmarkTable2Groups(b *testing.B) {
	rep := measure.Report{GainDB: 106.5, GBW: 1.02e6, PM: 60.96, Power: 47.8e-6, Stable: true}
	for i := 0; i < b.N; i++ {
		for _, g := range spec.Groups() {
			_ = g.Prompt()
			_ = g.Check(rep)
			_ = g.FoMOf(rep)
		}
	}
}

// BenchmarkTable3Comparison runs a reduced Table 3 cell set per iteration:
// every method on G-1 with a small baseline budget. The success custom
// metrics expose the headline comparison (Artisan ≫ baselines).
func BenchmarkTable3Comparison(b *testing.B) {
	var artSucc, boSucc int
	var speedup float64
	for i := 0; i < b.N; i++ {
		cfg := experiment.DefaultConfig(int64(i))
		cfg.Trials = 1
		cfg.Budget = 40
		cfg.Groups = []string{"G-1"}
		t3, err := experiment.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if c, _ := t3.Cell(experiment.MethodArtisan, "G-1"); c.Successes > 0 {
			artSucc++
		}
		if c, _ := t3.Cell(experiment.MethodBOBO, "G-1"); c.Successes > 0 {
			boSucc++
		}
		speedup = t3.Speedup(experiment.MethodBOBO, "G-1")
	}
	b.ReportMetric(float64(artSucc)/float64(b.N), "artisanSucc")
	b.ReportMetric(float64(boSucc)/float64(b.N), "boboSucc")
	b.ReportMetric(speedup, "speedupX")
}

// BenchmarkFig1Skeleton elaborates the Fig. 1 behavioral model (skeleton
// plus small-signal stage models) and runs the full metric extraction.
func BenchmarkFig1Skeleton(b *testing.B) {
	topo, env := nmcRef(), topology.DefaultEnv()
	for i := 0; i < b.N; i++ {
		nl, err := topo.Elaborate(env)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := measure.Analyze(nl, "out"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Workflow runs the complete Fig. 2 workflow end to end:
// specs → ToT selection → CoT flow → verification → gm/Id mapping.
func BenchmarkFig2Workflow(b *testing.B) {
	g1, _ := spec.Group("G-1")
	succ := 0
	for i := 0; i < b.N; i++ {
		a := core.NewWithModel(llm.NewDomainModel(int64(i), 0))
		out, err := a.Design(context.Background(), g1)
		if err != nil {
			b.Fatal(err)
		}
		if out.Success {
			succ++
		}
	}
	b.ReportMetric(float64(succ)/float64(b.N), "success")
}

// BenchmarkFig3Bidirectional exercises the bidirectional representation of
// Fig. 3: random topology → description → topology round trip.
func BenchmarkFig3Bidirectional(b *testing.B) {
	s := topology.NewSampler(1)
	for i := 0; i < b.N; i++ {
		topo := s.Random()
		d := describe.Describe(topo)
		if _, err := describe.Parse(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4DesignFlow runs the 8-step CoT design flow of Fig. 4 (the
// NMC procedure with its calculator derivations).
func BenchmarkFig4DesignFlow(b *testing.B) {
	g1, _ := spec.Group("G-1")
	for i := 0; i < b.N; i++ {
		if _, err := design.Design("NMC", g1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5MultiAgent runs the multi-agent QA session of Fig. 5
// (prompter ↔ designer with tool invocations) and reports the QA count.
func BenchmarkFig5MultiAgent(b *testing.B) {
	g1, _ := spec.Group("G-1")
	var qa int
	for i := 0; i < b.N; i++ {
		out, err := agents.NewSession(llm.NewDomainModel(int64(i), 0), g1, agents.DefaultOptions()).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		qa = out.QACount
	}
	b.ReportMetric(float64(qa), "qaSteps")
}

// BenchmarkFig6Examples regenerates the Fig. 6 design-example comparison:
// a (small-budget) BOBO search result next to Artisan's behavioral and
// transistor-level circuits.
func BenchmarkFig6Examples(b *testing.B) {
	g1, _ := spec.Group("G-1")
	for i := 0; i < b.N; i++ {
		if _, err := opt.BOBO(context.Background(), g1, 25, int64(i)); err != nil {
			b.Fatal(err)
		}
		r, err := design.Design("NMC", g1, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gmid.Map(gmid.Default180nm(), gmid.DefaultStagePlan(), r.Topo, 1.8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7ChatLogs regenerates the Fig. 7 chat-log comparison: one
// full Artisan transcript plus the single-step answers of GPT-4 and
// Llama2.
func BenchmarkFig7ChatLogs(b *testing.B) {
	g1, _ := spec.Group("G-1")
	gpt4 := llm.NewGPT4Model()
	llama := llm.NewLlama2Model()
	var chatLen int
	for i := 0; i < b.N; i++ {
		out, err := agents.NewSession(llm.NewDomainModel(1, 0), g1, agents.DefaultOptions()).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		chat := out.Transcript.Chat()
		chatLen = len(chat)
		for _, m := range []llm.Model{gpt4, llama} {
			if _, err := m.Generate("please analyze the zero-pole distributions"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(chatLen), "chatBytes")
}

// --- ablation benches: the design choices DESIGN.md calls out ---------------

// BenchmarkAblationToTWidth compares single-shot architecture selection
// (the paper's flow) against verification-selected ToT with width 3.
func BenchmarkAblationToTWidth(b *testing.B) {
	g3, _ := spec.Group("G-3")
	for _, width := range []int{1, 3} {
		width := width
		b.Run(map[int]string{1: "width1", 3: "width3"}[width], func(b *testing.B) {
			succ, sims := 0, 0
			for i := 0; i < b.N; i++ {
				opts := agents.DefaultOptions()
				opts.TreeWidth = width
				out, err := agents.NewSession(llm.NewDomainModel(int64(i), 0.22), g3, opts).Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if out.Success {
					succ++
				}
				sims += out.SimCount
			}
			b.ReportMetric(float64(succ)/float64(b.N), "success")
			b.ReportMetric(float64(sims)/float64(b.N), "sims")
		})
	}
}

// BenchmarkAblationModification measures the value of the second ToT
// decision point (redesign after failed verification).
func BenchmarkAblationModification(b *testing.B) {
	g5, _ := spec.Group("G-5")
	for _, mods := range []int{0, 1} {
		mods := mods
		b.Run(map[int]string{0: "noMod", 1: "oneMod"}[mods], func(b *testing.B) {
			succ := 0
			for i := 0; i < b.N; i++ {
				opts := agents.DefaultOptions()
				opts.MaxModifications = mods
				out, err := agents.NewSession(llm.NewDomainModel(int64(i), 0.3), g5, opts).Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if out.Success {
					succ++
				}
			}
			b.ReportMetric(float64(succ)/float64(b.N), "success")
		})
	}
}

// tuningSession runs the agent-tuning ablation's session i on sp: the
// Artisan-LLM at seed 100+i and temperature 0.45, no modification round,
// and the parameter-tuning tool on or off.
func tuningSession(sp spec.Spec, i int, tune bool) (*agents.Outcome, error) {
	opts := agents.DefaultOptions()
	opts.Tune = tune
	opts.MaxModifications = 0
	return agents.NewSession(llm.NewDomainModel(int64(i)+100, 0.45), sp, opts).Run(context.Background())
}

// BenchmarkAblationTuning measures the optional parameter-tuning tool
// (the default sizing backend) as a failure rescue at high temperature.
// Both variants report success over the same 100 sessions, counted once
// before timing, so the rates compare like with like whatever b.N each
// variant reaches; the timed loop cycles through those sessions.
func BenchmarkAblationTuning(b *testing.B) {
	g4, _ := spec.Group("G-4")
	const sessions = 100
	for _, tune := range []bool{false, true} {
		tune := tune
		succ := 0
		for i := 0; i < sessions; i++ {
			out, err := tuningSession(g4, i, tune)
			if err != nil {
				b.Fatal(err)
			}
			if out.Success {
				succ++
			}
		}
		b.Run(map[bool]string{false: "noTune", true: "tune"}[tune], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tuningSession(g4, i%sessions, tune); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(succ)/sessions, "success")
		})
	}
}

// TestAblationTuningTable pins the agent-tuning table: 40 tuned sessions
// per Table-2 group, successes per group G-1…G-5 and simulator calls
// summed over all 200. The row is exact because every session is
// deterministic in its seed. A change that moves it on purpose (to a
// backend, the tuner's budget or the session flow) updates the row and
// says why.
func TestAblationTuningTable(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("200 tuned sessions; skipped under -short and -race")
	}
	want, wantCalls := []int{37, 37, 38, 36, 40}, 6401
	got, calls := make([]int, 0, len(want)), 0
	for _, g := range spec.Groups() {
		succ := 0
		for i := 0; i < 40; i++ {
			out, err := tuningSession(g, i, true)
			if err != nil {
				t.Fatalf("%s session %d: %v", g.Name, i, err)
			}
			if out.Success {
				succ++
			}
			calls += out.SimCount
		}
		got = append(got, succ)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || calls != wantCalls {
		t.Errorf("successes per group %v with %d simulator calls, want %v with %d", got, calls, want, wantCalls)
	}
}

// BenchmarkMNASolve isolates the simulator substrate: one full AC metric
// extraction of the reference NMC opamp (the unit of the cost model).
func BenchmarkMNASolve(b *testing.B) {
	nl := nmcRefNetlist(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := measure.Analyze(nl, "out"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCircuitSolveAt measures one MNA solve of the reference NMC
// system in the circuit's own scratch — the innermost unit of every
// sweep, pole search, and BO evaluation. Steady state must be
// allocation-free.
func BenchmarkCircuitSolveAt(b *testing.B) {
	c := nmcRefCircuit(b)
	s := mna.Omega(1e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SolveAt(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCircuitSweep measures measure.Analyze's 289-point AC sweep
// grid in isolation, every point solved (Analyze stops at its last
// crossing).
func BenchmarkCircuitSweep(b *testing.B) {
	c := nmcRefCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Sweep(context.Background(), "out", 1e-2, 1e10, 24, everyPoint); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoleZero measures pole plus zero extraction on a freshly
// compiled NMC circuit (the cold path measure.Analyze takes per report).
func BenchmarkPoleZero(b *testing.B) {
	nl := nmcRefNetlist(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := mna.Compile(nl)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Poles(context.Background()); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Zeros(context.Background(), "out"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraining runs the simulated DAPT+SFT pipeline on a small
// dataset build.
func BenchmarkTraining(b *testing.B) {
	build, err := corpus.Generate(corpus.Config{Scale: 0.001, Seed: 1, AugmentVariants: 2})
	if err != nil {
		b.Fatal(err)
	}
	ds := build.Dataset()
	b.ResetTimer()
	var improved bool
	for i := 0; i < b.N; i++ {
		_, rep, err := llm.Train(ds, llm.DefaultTrainConfig(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		improved = rep.DAPT.Improved()
	}
	if !improved {
		b.Fatal("training did not improve held-out loss")
	}
}

// --- extension benches: capabilities beyond the paper's evaluation -----------

// BenchmarkTransientStep measures the large-signal characterization: a
// slew-limited closed-loop step on the reference NMC buffer.
func BenchmarkTransientStep(b *testing.B) {
	_, nl := g1Design(b)
	b.ResetTimer()
	var sr float64
	for i := 0; i < b.N; i++ {
		rep, err := measure.StepAnalyze(nl, "out", measure.DefaultStepOpts())
		if err != nil {
			b.Fatal(err)
		}
		sr = rep.SlewRate
	}
	b.ReportMetric(sr/1e6, "slewVperUs")
}

// BenchmarkNoiseSweep measures the thermal-noise analysis over 10 decades.
func BenchmarkNoiseSweep(b *testing.B) {
	c := nmcRefCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.NoiseSweep("out", 1, 1e9, 10, mna.NoiseOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloYield measures the mismatch-yield tool on a finished
// design (120 samples of 5% spread).
func BenchmarkMonteCarloYield(b *testing.B) {
	g1, nl := g1Design(b)
	b.ResetTimer()
	var y float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.MonteCarloYield(nl, g1, experiment.YieldOpts{Samples: 120, Sigma: 0.05, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		y = res.Yield()
	}
	b.ReportMetric(y, "yield")
}

// BenchmarkCircuitPool times the simulator on the circuits perfbench's
// circuit_sim serves: the first 64 pool circuits, built outside the
// timer. One op is one pass over all 64 through one layer: analyze
// (measure.AnalyzeContext), step (measure.StepAnalyze; the pool's step
// failures are part of the pass), noise (1 Hz to 1 GHz at 10 points per
// decade) or yield (32 samples, seed 1, one worker).
func BenchmarkCircuitPool(b *testing.B) {
	tasks := poolTasks(b, 64)
	circuits := make([]*mna.Circuit, len(tasks))
	for i, t := range tasks {
		c, err := mna.Compile(t.Netlist)
		if err != nil {
			b.Fatal(err)
		}
		circuits[i] = c
	}
	ctx := context.Background()
	for _, layer := range []struct {
		name string
		run  func(i int) error
	}{
		{"analyze", func(i int) error {
			_, err := measure.AnalyzeContext(ctx, tasks[i].Netlist, "out")
			return err
		}},
		{"step", func(i int) error {
			// Some pool circuits fail their step (no GBW, or Newton
			// non-convergence); the failure is part of the timed pass.
			_, _ = measure.StepAnalyze(tasks[i].Netlist, "out", measure.DefaultStepOpts())
			return nil
		}},
		{"noise", func(i int) error {
			_, err := circuits[i].NoiseSweep("out", 1, 1e9, 10, mna.NoiseOpts{})
			return err
		}},
		{"yield", func(i int) error {
			_, err := experiment.MonteCarloYield(tasks[i].Netlist, tasks[i].Spec,
				experiment.YieldOpts{Samples: 32, Seed: 1, Workers: 1})
			return err
		}},
	} {
		b.Run(layer.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				for i := range tasks {
					if err := layer.run(i); err != nil {
						b.Fatalf("circuit %d: %v", i, err)
					}
				}
			}
		})
	}
}

// BenchmarkCorners measures the five-corner PVT sweep.
func BenchmarkCorners(b *testing.B) {
	g1, _ := spec.Group("G-1")
	r, err := design.Design("NMC", g1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	pass := false
	for i := 0; i < b.N; i++ {
		rep, err := experiment.RunCorners(r.Topo, g1, nil)
		if err != nil {
			b.Fatal(err)
		}
		pass = rep.Results[0].Pass
	}
	if !pass {
		b.Fatal("TT corner failed")
	}
}

// BenchmarkTwoStageWorkflow runs the §2.2 extension: a buffer-class spec
// through the full workflow, landing on the two-stage SMC family.
func BenchmarkTwoStageWorkflow(b *testing.B) {
	sp := spec.Spec{Name: "buffer", MinGainDB: 70, MinGBW: 2e6, MinPM: 55,
		MaxPower: 150e-6, CL: 5e-12, RL: 1e6, VDD: 1.8}
	succ := 0
	for i := 0; i < b.N; i++ {
		out, err := agents.NewSession(llm.NewDomainModel(int64(i), 0), sp, agents.DefaultOptions()).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if out.Success && out.Topology.TwoStage {
			succ++
		}
	}
	b.ReportMetric(float64(succ)/float64(b.N), "success")
}

// BenchmarkBackendComparison runs the head-to-head sizing-backend sweep
// on G-1 (all four registered backends recovering the same detuned
// design) and reports the hybrid backend's evals-to-spec advantage over
// plain BO — the multiplier behind the backend subsystem's acceptance
// bar.
func BenchmarkBackendComparison(b *testing.B) {
	cfg := experiment.DefaultBackendConfig(42)
	cfg.Trials = 2
	cfg.Budget = 60
	cfg.Groups = []string{"G-1"}
	var adv float64
	for i := 0; i < b.N; i++ {
		table, err := experiment.RunBackends(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		adv = table.EvalAdvantage("hybrid", "bo", "G-1")
	}
	b.ReportMetric(adv, "hybridEvalAdvantage")
}

// BenchmarkAblationBudgetCurve traces the GA baseline's success rate as
// its simulation budget grows — the convergence-style experiment that
// locates how much search a black-box method needs to start competing.
func BenchmarkAblationBudgetCurve(b *testing.B) {
	g1, _ := spec.Group("G-1")
	var last float64
	for i := 0; i < b.N; i++ {
		pts, err := experiment.BudgetCurve(context.Background(), experiment.MethodGA, g1, []int{40, 120}, 2, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		last = float64(pts[len(pts)-1].Successes) / float64(pts[len(pts)-1].Trials)
	}
	b.ReportMetric(last, "successAtMaxBudget")
}

// BenchmarkLadderAC sweeps a 60-stage RC ladder — 61 unknowns — to
// measure the dense AC kernel's cost at a size no workload serves
// (generated, sampled and library topologies have 4–24 unknowns).
func BenchmarkLadderAC(b *testing.B) {
	nl := netlist.New("ladder")
	nl.AddV("V1", "in", "0", 1)
	prev := "in"
	const stages = 60
	for i := 0; i < stages; i++ {
		node := fmt.Sprintf("n%d", i)
		if i == stages-1 {
			node = "out"
		}
		nl.AddR(fmt.Sprintf("R%d", i), prev, node, 1e3*(1+float64(i%7)))
		nl.AddC(fmt.Sprintf("C%d", i), node, "0", 1e-12*(1+float64(i%5)))
		prev = node
	}
	c, err := mna.Compile(nl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Sweep(context.Background(), "out", 1e-1, 1e9, 24, everyPoint); err != nil {
			b.Fatal(err)
		}
	}
}

// --- shared setup: the circuits the simulator benchmarks and the
// allocation gate (TestHotPathAllocs) measure -------------------------------

// everyPoint is a sweep visitor that keeps the sweep going to its end.
func everyPoint(mna.TFPoint) bool { return true }

// nmcRef is the reference NMC opamp of Fig. 1.
func nmcRef() *topology.Topology {
	return topology.NMC(25.13e-6, 37.7e-6, 251.3e-6, 4e-12, 3e-12)
}

// nmcRefNetlist elaborates nmcRef in the default environment.
func nmcRefNetlist(tb testing.TB) *netlist.Netlist {
	tb.Helper()
	nl, err := nmcRef().Elaborate(topology.DefaultEnv())
	if err != nil {
		tb.Fatal(err)
	}
	return nl
}

// nmcRefCircuit compiles nmcRefNetlist.
func nmcRefCircuit(tb testing.TB) *mna.Circuit {
	tb.Helper()
	c, err := mna.Compile(nmcRefNetlist(tb))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// g1Design returns G-1 and the elaborated NMC design the CoT flow
// produces for it: the finished design the transient and Monte-Carlo
// benchmarks characterise.
func g1Design(tb testing.TB) (spec.Spec, *netlist.Netlist) {
	tb.Helper()
	g1, _ := spec.Group("G-1")
	r, err := design.Design("NMC", g1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	nl, err := r.Topo.Elaborate(topology.DefaultEnv())
	if err != nil {
		tb.Fatal(err)
	}
	return g1, nl
}

// poolTasks returns the first n circuits of perfbench circuit_sim's pool:
// entry i is bench.NewTask(i, 1_000_003+7919·i), a generated topology
// with its derived spec.
func poolTasks(tb testing.TB, n int) []*bench.Task {
	tb.Helper()
	tasks := make([]*bench.Task, n)
	for i := range tasks {
		t, err := bench.NewTask(i, 1_000_003+7919*int64(i))
		if err != nil {
			tb.Fatal(err)
		}
		tasks[i] = t
	}
	return tasks
}
