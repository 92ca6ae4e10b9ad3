package agents

import (
	"context"
	"strings"
	"testing"

	"artisan/internal/llm"
	"artisan/internal/measure"
	"artisan/internal/spec"
	"artisan/internal/topology"
)

func TestArtisanSessionG1(t *testing.T) {
	g1, _ := spec.Group("G-1")
	s := NewSession(llm.NewDomainModel(1, 0), g1, DefaultOptions())
	out, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success {
		t.Fatalf("deterministic Artisan session failed on G-1: %s", out.FailReason)
	}
	if out.Arch != "NMC" {
		t.Errorf("arch = %s, want NMC", out.Arch)
	}
	if out.SimCount < 1 {
		t.Error("no simulator invocations counted")
	}
	if out.QACount < 6 {
		t.Errorf("QACount = %d, want a full CoT flow", out.QACount)
	}
	chat := out.Transcript.Chat()
	for _, want := range []string{"Q0:", "A0:", "nested Miller", "[calculator]",
		"[simulator]", "final netlist"} {
		if !strings.Contains(chat, want) {
			t.Errorf("chat log missing %q", want)
		}
	}
	if out.FoM(g1) <= 0 {
		t.Error("FoM should be positive on success")
	}
}

func TestArtisanSessionAllGroups(t *testing.T) {
	for _, g := range spec.Groups() {
		s := NewSession(llm.NewDomainModel(3, 0), g, DefaultOptions())
		out, err := s.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if !out.Success {
			t.Errorf("%s: failed (%s), arch=%s report=%v", g.Name, out.FailReason, out.Arch, out.Report)
		}
	}
}

func TestGPT4SessionFails(t *testing.T) {
	g1, _ := spec.Group("G-1")
	s := NewSession(llm.NewGPT4Model(), g1, DefaultOptions())
	out, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Success {
		t.Fatal("GPT-4 session should fail (paper Table 3: 0 successes)")
	}
	chat := out.Transcript.Chat()
	if !strings.Contains(chat, "cannot execute") {
		t.Errorf("chat should document the failure mode:\n%s", chat)
	}
}

func TestLlama2SessionFails(t *testing.T) {
	g1, _ := spec.Group("G-1")
	s := NewSession(llm.NewLlama2Model(), g1, DefaultOptions())
	out, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Success {
		t.Fatal("Llama2 session should fail")
	}
	if out.FailReason == "" {
		t.Error("failure reason missing")
	}
}

// The modification decision point: starting from a deliberately unsuitable
// architecture on G-5, the failure description must route to DFCFC.
func TestModificationReachesDFCFC(t *testing.T) {
	g5, _ := spec.Group("G-5")
	m := llm.NewDomainModel(2, 0)
	mod, err := m.ProposeModification(context.Background(), g5, describeFailure(g5, measure.Report{
		GainDB: 100, GBW: 0.1e6, PM: 10, Power: 100e-6, Stable: true}))
	if err != nil {
		t.Fatal(err)
	}
	if mod.NewArch != "DFCFC" {
		t.Errorf("modification = %+v, want DFCFC", mod)
	}
}

func TestTreeWidthExploresCandidates(t *testing.T) {
	g1, _ := spec.Group("G-1")
	opts := DefaultOptions()
	opts.TreeWidth = 3
	s := NewSession(llm.NewDomainModel(4, 0), g1, opts)
	out, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success {
		t.Fatalf("wide ToT session failed: %s", out.FailReason)
	}
	// Three candidates must have been recorded and verified.
	decisions := 0
	for _, e := range out.Transcript.Entries {
		if e.Role == RoleDecision && strings.Contains(e.Text, "candidate") {
			decisions++
		}
	}
	if decisions != 3 {
		t.Errorf("ToT decisions = %d, want 3", decisions)
	}
	if out.SimCount < 3 {
		t.Errorf("SimCount = %d, want >= 3 (one verification per branch)", out.SimCount)
	}
}

func TestTunerRescuesDetunedDesign(t *testing.T) {
	g1, _ := spec.Group("G-1")
	// A detuned NMC: gm3 too small (PM/GBW will miss).
	topo := topology.NMC(10e-6, 15e-6, 60e-6, 4e-12, 3e-12)
	sim := NewSimulator()
	rep, err := sim.MeasureTopology(context.Background(), topo, g1)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Satisfied(rep) {
		t.Fatal("test premise broken: detuned design already passes")
	}
	tuner := NewTuner(sim, 7)
	res, err := tuner.Tune(context.Background(), topo, g1)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Score(g1, res.Report) < spec.Score(g1, rep) {
		t.Errorf("tuning made things worse: %g -> %g", spec.Score(g1, rep), res.Score)
	}
	if !g1.Satisfied(res.Report) {
		t.Logf("note: tuner improved but did not fully close spec: %v", res.Report)
	}
	if res.Topo == nil {
		t.Fatal("no tuned topology")
	}
}

func TestDescribeFailureWording(t *testing.T) {
	g5, _ := spec.Group("G-5")
	msg := describeFailure(g5, measure.Report{GainDB: 100, GBW: 0.1e6, PM: 10, Power: 50e-6, Stable: true})
	for _, want := range []string{"GBW", "phase margin", "1nF"} {
		if !strings.Contains(msg, want) {
			t.Errorf("failure text %q missing %q", msg, want)
		}
	}
}

// TestDescribeFailureUnverifiedStability: a report whose pole find
// failed tells the LLM that stability is unverified, not that the
// amplifier is unstable.
func TestDescribeFailureUnverifiedStability(t *testing.T) {
	g1, _ := spec.Group("G-1")
	msg := describeFailure(g1, measure.Report{GainDB: 100, GBW: 10e6, PM: 60, Power: 50e-6,
		PoleZeroErr: "mna: root finder did not converge"})
	want := "pole extraction failed (mna: root finder did not converge), stability is unverified"
	if !strings.Contains(msg, want) {
		t.Errorf("failure text %q missing %q", msg, want)
	}
}

func TestTranscriptNumbering(t *testing.T) {
	tr := &Transcript{Model: "test"}
	tr.QA("q one", "a one")
	tr.QA("q two", "a two")
	if tr.QACount() != 2 {
		t.Errorf("QACount = %d", tr.QACount())
	}
	chat := tr.Chat()
	for _, want := range []string{"Q0: q one", "A0: a one", "Q1: q two"} {
		if !strings.Contains(chat, want) {
			t.Errorf("chat missing %q", want)
		}
	}
}

func TestPrompterParaphrasing(t *testing.T) {
	// Zero temperature: canonical questions.
	p0 := NewPrompter(1, 0)
	q := "Please design an opamp for the large capacitive load."
	if p0.Next(q) != q {
		t.Error("zero-temperature prompter rephrased")
	}
	var nilP *Prompter
	if nilP.Next(q) != q {
		t.Error("nil prompter should pass through")
	}
	// Hot prompter eventually rephrases, preserving key terms.
	p := NewPrompter(2, 0.5)
	changed := false
	for i := 0; i < 50; i++ {
		out := p.Next(q)
		if out != q {
			changed = true
		}
		if !strings.Contains(out, "capacitive") && !strings.Contains(out, "load") {
			t.Fatalf("paraphrase lost meaning: %q", out)
		}
	}
	if !changed {
		t.Error("hot prompter never rephrased")
	}
}

func TestSessionWithHotPrompter(t *testing.T) {
	g1, _ := spec.Group("G-1")
	s := NewSession(llm.NewDomainModel(1, 0), g1, DefaultOptions())
	s.Prompter = NewPrompter(3, 0.6)
	out, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success {
		t.Fatalf("session failed: %s", out.FailReason)
	}
	// Identical design result to the canonical-prompter session.
	s2 := NewSession(llm.NewDomainModel(1, 0), g1, DefaultOptions())
	out2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Report.GBW != out2.Report.GBW {
		t.Error("prompter phrasing changed the design result")
	}
}

// A session that records no transcript reaches the same outcome, QA count
// and simulator count as one that records it, and its transcript holds no
// entry.
func TestSessionNoTranscript(t *testing.T) {
	run := func(g spec.Spec, seed int64, temp float64, tune, noTranscript bool) *Outcome {
		t.Helper()
		opts := DefaultOptions()
		opts.Tune = tune
		opts.NoTranscript = noTranscript
		out, err := NewSession(llm.NewDomainModel(seed, temp), g, opts).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	g1, _ := spec.Group("G-1")
	for _, g := range spec.Groups() {
		for seed := int64(1); seed <= 4; seed++ {
			tune := g.Name == "G-1" && seed == 1 // its direct design misses at 0.9
			temp := 0.3
			if tune {
				g, temp = g1, 0.9
			}
			full, bare := run(g, seed, temp, tune, false), run(g, seed, temp, tune, true)
			if bare.Success != full.Success || bare.Arch != full.Arch || bare.Report != full.Report ||
				bare.FailReason != full.FailReason || bare.QACount != full.QACount ||
				bare.SimCount != full.SimCount || bare.SizingEvals != full.SizingEvals {
				t.Errorf("%s seed %d: outcome without transcript %+v, with %+v", g.Name, seed, bare, full)
			}
			if (bare.Netlist == nil) != (full.Netlist == nil) ||
				(bare.Netlist != nil && bare.Netlist.String() != full.Netlist.String()) {
				t.Errorf("%s seed %d: netlists differ", g.Name, seed)
			}
			if tune && full.SizingEvals == 0 {
				t.Errorf("%s seed %d: the tuner did not run", g.Name, seed)
			}
			if n := len(bare.Transcript.Entries); n != 0 {
				t.Errorf("%s seed %d: %d transcript entries recorded", g.Name, seed, n)
			}
		}
	}
}
