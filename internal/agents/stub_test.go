package agents

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"artisan/internal/design"
	"artisan/internal/llm"
	"artisan/internal/spec"
)

// stubModel is a controllable DesignerModel for exercising session
// branches the real models rarely reach.
type stubModel struct {
	archs    []llm.ArchChoice
	archErr  error
	knobsFor func(arch string) (design.Knobs, error)
	mod      llm.Modification
	modErr   error
}

func (m *stubModel) Name() string { return "stub" }
func (m *stubModel) Generate(prompt string) (string, error) {
	return "stub answer", nil
}
func (m *stubModel) ProposeArchitectures(ctx context.Context, s spec.Spec, k int) ([]llm.ArchChoice, error) {
	if m.archErr != nil {
		return nil, m.archErr
	}
	out := m.archs
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}
func (m *stubModel) ProposeKnobs(ctx context.Context, arch string, s spec.Spec) (design.Knobs, error) {
	if m.knobsFor != nil {
		return m.knobsFor(arch)
	}
	return design.DefaultKnobs(arch, s)
}
func (m *stubModel) ProposeModification(ctx context.Context, s spec.Spec, failure string) (llm.Modification, error) {
	return m.mod, m.modErr
}

// detunedKnobs produce an NMC that reliably misses G-1: a 30× GBW margin
// blows the power budget (gm3 = 8π·GBW·CL scales linearly).
func detunedKnobs() design.Knobs {
	return design.Knobs{"GBWMargin": 30, "Cm1": 4e-12, "Cm2Ratio": 0.75}
}

func TestSessionModificationToUnknownArch(t *testing.T) {
	g1, _ := spec.Group("G-1")
	m := &stubModel{
		archs:    []llm.ArchChoice{{Arch: "NMC", Score: 1}},
		knobsFor: func(string) (design.Knobs, error) { return detunedKnobs(), nil },
		mod:      llm.Modification{NewArch: "MPMC", Rationale: "try multipath"},
	}
	out, err := NewSession(m, g1, DefaultOptions()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Success {
		t.Fatal("detuned design should fail")
	}
	if !strings.Contains(out.Transcript.Chat(), "no executable design procedure") {
		t.Error("unknown-architecture refusal missing from transcript")
	}
}

func TestSessionModificationProposalError(t *testing.T) {
	g1, _ := spec.Group("G-1")
	m := &stubModel{
		archs:    []llm.ArchChoice{{Arch: "NMC", Score: 1}},
		knobsFor: func(string) (design.Knobs, error) { return detunedKnobs(), nil },
		modErr:   fmt.Errorf("no idea"),
	}
	out, err := NewSession(m, g1, DefaultOptions()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Success {
		t.Fatal("should fail")
	}
	if !strings.Contains(out.Transcript.Chat(), "no modification strategy") {
		t.Error("modification failure not recorded")
	}
}

func TestSessionEmptyModification(t *testing.T) {
	g1, _ := spec.Group("G-1")
	m := &stubModel{
		archs:    []llm.ArchChoice{{Arch: "NMC", Score: 1}},
		knobsFor: func(string) (design.Knobs, error) { return detunedKnobs(), nil },
		mod:      llm.Modification{NewArch: "", Rationale: "increase the number of stages"},
	}
	out, err := NewSession(m, g1, DefaultOptions()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Success {
		t.Fatal("should fail")
	}
}

// The tuning tool as last resort inside the session loop.
func TestSessionTuneRescue(t *testing.T) {
	g1, _ := spec.Group("G-1")
	m := &stubModel{
		archs: []llm.ArchChoice{{Arch: "NMC", Score: 1}},
		// Mildly detuned: within the tuner's ±4× reach of a passing point.
		knobsFor: func(string) (design.Knobs, error) {
			return design.Knobs{"GBWMargin": 0.9, "Cm1": 4e-12, "Cm2Ratio": 0.75}, nil
		},
		mod: llm.Modification{NewArch: "", Rationale: "give up"},
	}
	opts := DefaultOptions()
	opts.MaxModifications = 0
	opts.Tune = true
	out, err := NewSession(m, g1, opts).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Transcript.Chat(), "[tuner]") {
		t.Error("tuner invocation missing from transcript")
	}
	if !out.Success {
		t.Logf("tuner did not fully close the spec (score-improving is enough): %v", out.Report)
	}
	if out.SimCount < 20 {
		t.Errorf("tuner should burn simulations, got %d", out.SimCount)
	}
	if out.SizingBackend != "hybrid" || out.SizingEvals != 53 {
		t.Errorf("tuner ran %q for %d evals, want hybrid for 53", out.SizingBackend, out.SizingEvals)
	}
}

func TestSessionDesignProcedureError(t *testing.T) {
	g1, _ := spec.Group("G-1")
	m := &stubModel{
		archs: []llm.ArchChoice{{Arch: "NMC", Score: 1}},
		knobsFor: func(string) (design.Knobs, error) {
			// Negative Cm1 → invalid topology → design.Design error path.
			return design.Knobs{"GBWMargin": 1.4, "Cm1": -4e-12, "Cm2Ratio": 0.75}, nil
		},
	}
	out, err := NewSession(m, g1, DefaultOptions()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Success {
		t.Fatal("invalid knobs should fail the session")
	}
	if out.FailReason == "" {
		t.Error("missing failure reason")
	}
}

func TestSessionWidthPicksVerifiedBest(t *testing.T) {
	g1, _ := spec.Group("G-1")
	// First candidate detuned, second healthy: width-2 ToT must land on
	// the healthy one.
	m := &stubModel{
		archs: []llm.ArchChoice{{Arch: "NMCNR", Score: 2}, {Arch: "NMC", Score: 1}},
		knobsFor: func(arch string) (design.Knobs, error) {
			if arch == "NMCNR" {
				return design.Knobs{"GBWMargin": 30, "Cm1": 4e-12,
					"Cm2Ratio": 0.75, "RzFactor": 1}, nil
			}
			return design.DefaultKnobs(arch, g1)
		},
	}
	opts := DefaultOptions()
	opts.TreeWidth = 2
	out, err := NewSession(m, g1, opts).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success || out.Arch != "NMC" {
		t.Errorf("width-2 session picked %s (success=%v), want healthy NMC", out.Arch, out.Success)
	}
}
