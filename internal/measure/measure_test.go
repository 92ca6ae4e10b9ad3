package measure

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"artisan/internal/netlist"
	"artisan/internal/units"
)

// buildNMC is the reference behavioral NMC opamp (GBW ≈ 1 MHz, PM ≈ 60°).
func buildNMC() *netlist.Netlist {
	n := netlist.New("nmc three-stage opamp")
	n.AddV("Vin", "in", "0", 1)
	n.AddG("Gm1", "0", "n1", "in", "0", 25.13e-6)
	n.AddR("Ro1", "n1", "0", 4e6)
	n.AddC("Cp1", "n1", "0", 4e-15)
	n.AddG("Gm2", "0", "n2", "n1", "0", 37.7e-6)
	n.AddR("Ro2", "n2", "0", 1.2e6)
	n.AddC("Cp2", "n2", "0", 6e-15)
	n.AddG("Gm3", "out", "0", "n2", "0", 251.3e-6)
	n.AddR("Ro3", "out", "0", 180e3)
	n.AddC("Cp3", "out", "0", 40e-15)
	n.AddC("Cm1", "n1", "out", 4e-12)
	n.AddC("Cm2", "n2", "out", 3e-12)
	n.AddR("RL", "out", "0", 1e6)
	n.AddC("CL", "out", "0", 10e-12)
	return n
}

func TestAnalyzeNMC(t *testing.T) {
	rep, err := Analyze(buildNMC(), "out")
	if err != nil {
		t.Fatal(err)
	}
	if rep.GainDB < 100 || rep.GainDB > 110 {
		t.Errorf("GainDB = %g, want ≈ 104.8", rep.GainDB)
	}
	if rep.GBW < 0.8e6 || rep.GBW > 1.3e6 {
		t.Errorf("GBW = %g, want ≈ 1 MHz", rep.GBW)
	}
	if rep.PM < 45 || rep.PM > 75 {
		t.Errorf("PM = %g°, want ≈ 60°", rep.PM)
	}
	if !rep.Stable {
		t.Error("NMC design should be stable")
	}
	if rep.NumPoles != 3 {
		t.Errorf("NumPoles = %d, want 3", rep.NumPoles)
	}
	if rep.F3dB <= 0 || rep.F3dB > 100 {
		t.Errorf("F3dB = %g, want a few Hz", rep.F3dB)
	}
	if math.IsInf(rep.GM, 1) || rep.GM < 3 {
		t.Errorf("GM = %g dB, want finite positive", rep.GM)
	}
	// Power model: 2·Id1 + Id2 + Id3 + bias ≈ 23 µA at 1.8 V ≈ 42 µW.
	if rep.Power < 30e-6 || rep.Power > 60e-6 {
		t.Errorf("Power = %g, want ≈ 42 µW", rep.Power)
	}
	s := rep.String()
	for _, want := range []string{"Gain=", "GBW=", "PM=", "stable=true"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestPhaseMarginTracksCm1(t *testing.T) {
	// Shrinking Cm1 pushes GBW up toward the non-dominant poles and must
	// reduce the phase margin: a monotone physical trend the extractor
	// has to reproduce.
	prevPM := math.Inf(1)
	for _, cm1 := range []float64{6e-12, 4e-12, 2e-12, 1e-12} {
		nl := buildNMC()
		nl.SetValue("Cm1", cm1)
		rep, err := Analyze(nl, "out")
		if err != nil {
			t.Fatal(err)
		}
		if rep.PM >= prevPM {
			t.Errorf("PM did not drop when Cm1 shrank to %g: %g >= %g", cm1, rep.PM, prevPM)
		}
		prevPM = rep.PM
	}
}

func TestUnstableDetected(t *testing.T) {
	// Removing both Miller caps leaves a 3-pole uncompensated amplifier:
	// phase dives through −180° well before unity gain (PM < 0), though
	// the open-loop poles themselves stay in the LHP.
	nl := buildNMC()
	nl.Remove("Cm1")
	nl.Remove("Cm2")
	rep, err := Analyze(nl, "out")
	if err != nil {
		t.Fatal(err)
	}
	if rep.PM > 20 {
		t.Errorf("uncompensated PM = %g°, want small or negative", rep.PM)
	}
	if rep.GM > 0 && rep.PM > 45 {
		t.Error("uncompensated amplifier reported comfortable margins")
	}
}

func TestLowGainNoGBW(t *testing.T) {
	// An attenuator never crosses unity: GBW must be 0.
	nl := netlist.New("attenuator")
	nl.AddV("V1", "in", "0", 1)
	nl.AddR("R1", "in", "out", 9e3)
	nl.AddR("R2", "out", "0", 1e3)
	nl.AddC("C1", "out", "0", 1e-12)
	rep, err := Analyze(nl, "out")
	if err != nil {
		t.Fatal(err)
	}
	if rep.GBW != 0 {
		t.Errorf("GBW = %g, want 0 for sub-unity gain", rep.GBW)
	}
	if !units.ApproxEqual(rep.DCGain, 0.1, 1e-6) {
		t.Errorf("DCGain = %g, want 0.1", rep.DCGain)
	}
}

func TestSingleStagePM90(t *testing.T) {
	// One-pole amplifier: PM ≈ 90°.
	nl := netlist.New("single pole")
	nl.AddV("V1", "in", "0", 1)
	nl.AddG("G1", "0", "out", "in", "0", 1e-3)
	nl.AddR("Ro", "out", "0", 1e6)
	nl.AddC("CL", "out", "0", 10e-12)
	rep, err := Analyze(nl, "out")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.PM-90) > 2 {
		t.Errorf("PM = %g°, want ≈ 90°", rep.PM)
	}
	if !rep.Stable {
		t.Error("single pole should be stable")
	}
	// GBW = gm/(2π·CL) ≈ 15.9 MHz
	want := 1e-3 / (2 * math.Pi * 10e-12)
	if !units.ApproxEqual(rep.GBW, want, 0.05) {
		t.Errorf("GBW = %g, want %g", rep.GBW, want)
	}
}

func TestPowerModel(t *testing.T) {
	pm := DefaultPowerModel()
	nl := buildNMC()
	p := pm.Power(nl, nil)
	id := (2*25.13e-6 + 37.7e-6 + 251.3e-6) / 16
	want := 1.8 * (id + 2e-6)
	if !units.ApproxEqual(p, want, 1e-9) {
		t.Errorf("Power = %g, want %g", p, want)
	}
	// A custom model with different input stage naming.
	pm2 := pm
	pm2.InputStage = "Gm3"
	p2 := pm2.Power(nl, nil)
	if p2 <= p {
		t.Error("making the largest stage the input stage should raise power")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	nl := netlist.New("broken")
	nl.AddR("R1", "a", "b", 1e3) // floating
	if _, err := Analyze(nl, "b"); err == nil {
		t.Error("Analyze accepted invalid netlist")
	}
	good := buildNMC()
	if _, err := Analyze(good, "nonexistent"); err == nil {
		t.Error("Analyze accepted unknown output node")
	}
}

func TestLogInterp(t *testing.T) {
	// crossing of a perfect -20 dB/dec line through magnitude 1 at 1 kHz
	f := logInterp(100, 10e3, 10, 0.1, 1)
	if !units.ApproxEqual(f, 1e3, 1e-9) {
		t.Errorf("logInterp = %g, want 1000", f)
	}
}

// TestPoleZeroErrSurfaced: a 66-section RC ladder, which the Aberth root
// finder rejected ("implausible polynomial degree 66"), gets its 66
// poles, all in the left half plane, with no pole-find error. A report
// whose pole find failed says so in String; the agent's wording for it
// is checked in internal/agents.
func TestPoleZeroErrSurfaced(t *testing.T) {
	nl := netlist.New("deep rc ladder")
	nl.AddV("V1", "in", "0", 1)
	prev := "in"
	const sections = 66
	for i := 0; i < sections; i++ {
		node := fmt.Sprintf("n%d", i)
		if i == sections-1 {
			node = "out"
		}
		nl.AddR(fmt.Sprintf("R%d", i), prev, node, 1e3)
		nl.AddC(fmt.Sprintf("C%d", i), node, "0", 1e-9)
		prev = node
	}
	rep, err := Analyze(nl, "out")
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumPoles != sections || !rep.Stable || rep.PoleZeroErr != "" {
		t.Errorf("66-section ladder: %d poles, stable %v, pole error %q; want 66, true, none",
			rep.NumPoles, rep.Stable, rep.PoleZeroErr)
	}
	failed := Report{PoleZeroErr: "mna: root finder did not converge"}
	if !strings.Contains(failed.String(), "pz-error") {
		t.Errorf("String() = %q, want the pole-find failure surfaced", failed.String())
	}
	// A healthy circuit keeps the field empty.
	rep, err = Analyze(buildNMC(), "out")
	if err != nil {
		t.Fatal(err)
	}
	if rep.PoleZeroErr != "" {
		t.Errorf("healthy NMC got PoleZeroErr = %q", rep.PoleZeroErr)
	}
}
