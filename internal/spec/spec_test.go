package spec

import (
	"strings"
	"testing"

	"artisan/internal/measure"
	"artisan/internal/units"
)

func TestGroupsMatchTable2(t *testing.T) {
	gs := Groups()
	if len(gs) != 5 {
		t.Fatalf("got %d groups, want 5", len(gs))
	}
	// Table 2 rows.
	rows := []struct {
		name  string
		gain  float64
		gbw   float64
		pm    float64
		power float64
		cl    float64
	}{
		{"G-1", 85, 0.7e6, 55, 250e-6, 10e-12},
		{"G-2", 110, 0.7e6, 55, 250e-6, 10e-12},
		{"G-3", 85, 5e6, 55, 250e-6, 10e-12},
		{"G-4", 85, 0.7e6, 55, 50e-6, 10e-12},
		{"G-5", 85, 0.7e6, 55, 250e-6, 1000e-12},
	}
	for i, r := range rows {
		g := gs[i]
		if g.Name != r.name || g.MinGainDB != r.gain || g.MinGBW != r.gbw ||
			g.MinPM != r.pm || g.MaxPower != r.power || g.CL != r.cl {
			t.Errorf("group %d = %+v, want %+v", i, g, r)
		}
		if g.RL != 1e6 || g.VDD != 1.8 {
			t.Errorf("group %s: RL/VDD = %g/%g, want 1e6/1.8", g.Name, g.RL, g.VDD)
		}
	}
}

func TestGroupLookup(t *testing.T) {
	g, err := Group("g-3")
	if err != nil || g.Name != "G-3" {
		t.Errorf("Group(g-3) = %v, %v", g, err)
	}
	if _, err := Group("G-9"); err == nil {
		t.Error("unknown group accepted")
	}
}

func TestFoM(t *testing.T) {
	// Paper Table 3, Artisan G-1: GBW=1.02MHz, CL=10pF, Power=47.8µW
	// → FoM ≈ 213. (The paper reports 289.2 including slewing terms we
	// don't model; same order.)
	f := FoM(1.02e6, 10e-12, 47.8e-6)
	if !units.ApproxEqual(f, 1.02*10/0.0478, 1e-9) {
		t.Errorf("FoM = %g", f)
	}
	if FoM(1e6, 1e-12, 0) != 0 {
		t.Error("FoM with zero power should be 0")
	}
}

func TestCheckAndSatisfied(t *testing.T) {
	g1, _ := Group("G-1")
	good := measure.Report{GainDB: 106.5, GBW: 1.02e6, PM: 60.96, Power: 47.8e-6, Stable: true}
	if !g1.Satisfied(good) {
		t.Errorf("paper's Artisan G-1 row should satisfy G-1: %v", g1.Check(good))
	}
	bad := measure.Report{GainDB: 80, GBW: 0.5e6, PM: 40, Power: 300e-6, Stable: false}
	vs := g1.Check(bad)
	if len(vs) != 5 {
		t.Errorf("got %d violations, want 5: %v", len(vs), vs)
	}
	desc := Describe(vs)
	for _, want := range []string{"Gain", "GBW", "PM", "Power", "Stability"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q: %s", want, desc)
		}
	}
	if Describe(nil) != "all specs met" {
		t.Error("empty violations should describe success")
	}
}

func TestBoundaries(t *testing.T) {
	g1, _ := Group("G-1")
	edge := measure.Report{GainDB: 85, GBW: 0.7e6, PM: 55, Power: 250e-6, Stable: true}
	if !g1.Satisfied(edge) {
		t.Errorf("exact-threshold report should pass: %v", g1.Check(edge))
	}
	edge.Power = 250.1e-6
	if g1.Satisfied(edge) {
		t.Error("power over budget should fail")
	}
}

func TestScoreOrdering(t *testing.T) {
	g1, _ := Group("G-1")
	pass := measure.Report{GainDB: 100, GBW: 1e6, PM: 60, Power: 50e-6, Stable: true}
	closeFail := measure.Report{GainDB: 84, GBW: 1e6, PM: 60, Power: 50e-6, Stable: true}
	farFail := measure.Report{GainDB: 40, GBW: 0.1e6, PM: 10, Power: 500e-6, Stable: false}
	if Score(g1, pass) <= 0 {
		t.Error("passing design should have positive score (FoM)")
	}
	if Score(g1, closeFail) <= Score(g1, farFail) {
		t.Error("closer miss should score higher")
	}
}

func TestPromptAndString(t *testing.T) {
	g5, _ := Group("G-5")
	p := g5.Prompt()
	for _, want := range []string{"85", "55", "700k", "250u", "1n"} {
		if !strings.Contains(p, want) {
			t.Errorf("Prompt %q missing %q", p, want)
		}
	}
	s := g5.String()
	if !strings.Contains(s, "G-5") || !strings.Contains(s, "CL=1nF") {
		t.Errorf("String = %q", s)
	}
}
