package mna

import (
	"math"
	"strings"
	"testing"

	"artisan/internal/netlist"
	"artisan/internal/units"
)

// A bare resistor to ground shows the textbook 4kTR voltage noise.
func TestResistorThermalNoise(t *testing.T) {
	R := 100e3
	nl := netlist.New("resistor noise")
	nl.AddR("R1", "out", "0", R)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	svv, err := c.NoiseAt("out", 1e3, NoiseOpts{TempK: 300})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * kB * 300 * R // 4kTR ≈ 1.66e-15 V²/Hz
	if !units.ApproxEqual(svv, want, 1e-9) {
		t.Errorf("Svv = %g, want %g", svv, want)
	}
}

// The classic result: the total integrated noise of an RC filter is kT/C,
// independent of R.
func TestKTOverC(t *testing.T) {
	C := 1e-12
	want := kB * 300 / C // ≈ 4.14e-9 V² → 64 µV rms
	for _, R := range []float64{1e3, 100e3} {
		nl := netlist.New("ktc")
		nl.AddR("R1", "out", "0", R)
		nl.AddC("C1", "out", "0", C)
		c, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		// Integrate far past the pole: f3dB = 1/(2πRC).
		f3 := 1 / (2 * math.Pi * R * C)
		vrms, err := c.IntegratedNoise("out", f3/1e4, f3*1e4, NoiseOpts{TempK: 300})
		if err != nil {
			t.Fatal(err)
		}
		got := vrms * vrms
		if !units.ApproxEqual(got, want, 0.05) {
			t.Errorf("R=%g: integrated noise %g V², want kT/C = %g", R, got, want)
		}
	}
}

// VCCS channel noise dominates in an amplifier: the input-referred density
// of a single gm stage is 4kTγ/gm.
func TestAmplifierChannelNoise(t *testing.T) {
	gm, Ro := 1e-3, 100e3
	nl := netlist.New("gm noise")
	nl.AddV("V1", "in", "0", 1)
	nl.AddG("G1", "0", "out", "in", "0", gm)
	nl.AddR("Ro", "out", "0", Ro)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	svv, err := c.NoiseAt("out", 1e3, NoiseOpts{TempK: 300, Gamma: 2.0 / 3.0})
	if err != nil {
		t.Fatal(err)
	}
	// Output noise = (4kTγgm + 4kT/Ro)·Ro².
	want := (4*kB*300*(2.0/3.0)*gm + 4*kB*300/Ro) * Ro * Ro
	if !units.ApproxEqual(svv, want, 1e-9) {
		t.Errorf("Svv = %g, want %g", svv, want)
	}
	// Input-referred: divide by gain² — dominated by 4kTγ/gm.
	inRef := svv / (gm * Ro * gm * Ro)
	if ratio := inRef / (4 * kB * 300 * (2.0 / 3.0) / gm); ratio < 1 || ratio > 1.1 {
		t.Errorf("input-referred ratio = %g", ratio)
	}
}

func TestNoiseSweepShape(t *testing.T) {
	// RC-filtered noise: flat below the pole, falling above.
	nl := netlist.New("shape")
	nl.AddR("R1", "out", "0", 10e3)
	nl.AddC("C1", "out", "0", 1e-9) // pole ≈ 15.9 kHz
	c, _ := Compile(nl)
	pts, err := c.NoiseSweep("out", 10, 10e6, 10, NoiseOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Svv <= pts[len(pts)-1].Svv {
		t.Error("noise should fall above the pole")
	}
	lowRatio := pts[1].Svv / pts[0].Svv
	if lowRatio < 0.99 || lowRatio > 1.01 {
		t.Errorf("low-frequency plateau not flat: %g", lowRatio)
	}
}

func TestNoiseValidation(t *testing.T) {
	nl := netlist.New("v only")
	nl.AddV("V1", "out", "0", 1)
	nl.AddE("E1", "x", "0", "out", "0", 1)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NoiseAt("out", 1e3, NoiseOpts{}); err == nil {
		t.Error("noiseless circuit accepted")
	}
	nl2 := netlist.New("r")
	nl2.AddR("R1", "out", "0", 1e3)
	c2, _ := Compile(nl2)
	inf, nan := math.Inf(1), math.NaN()
	for _, r := range []struct{ fStart, fStop float64 }{
		{-1, 10},
		{nan, 10},
		{1, nan},
		{1, inf},
		{inf, inf},
		{5e-324, 1e10}, // fStop/fStart overflows
	} {
		_, err := c2.NoiseSweep("out", r.fStart, r.fStop, 10, NoiseOpts{})
		if err == nil || !strings.Contains(err.Error(), "bad noise sweep") {
			t.Errorf("range [%g, %g]: err = %v, want bad noise sweep", r.fStart, r.fStop, err)
		}
	}
	if _, err := c2.NoiseAt("out", nan, NoiseOpts{}); err == nil {
		t.Error("NaN NoiseAt frequency accepted")
	}
	if _, err := c2.IntegratedNoise("out", 1, inf, NoiseOpts{}); err == nil {
		t.Error("infinite IntegratedNoise bound accepted")
	}
	if _, err := c2.NoiseSweep("nope", 1, 10, 10, NoiseOpts{}); err == nil {
		t.Error("unknown node accepted")
	}
}

// The three-stage opamp's input-referred noise is dominated by the input
// pair (a design sanity check the knowledge base relies on).
func TestNMCInputReferredNoise(t *testing.T) {
	c, err := Compile(buildNMC())
	if err != nil {
		t.Fatal(err)
	}
	svv, err := c.NoiseAt("out", 10, NoiseOpts{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.TFAt("out", 10)
	if err != nil {
		t.Fatal(err)
	}
	gain2 := real(h)*real(h) + imag(h)*imag(h)
	inRef := svv / gain2
	// First-stage contribution alone: (4kTγ·gm1 + 4kT/Ro1)/gm1².
	gm1, ro1 := 25.13e-6, 4e6
	first := (4*kB*300*(2.0/3.0)*gm1 + 4*kB*300/ro1) / (gm1 * gm1)
	if inRef < first || inRef > 1.5*first {
		t.Errorf("input-referred %g should be slightly above the first-stage floor %g", inRef, first)
	}
}
