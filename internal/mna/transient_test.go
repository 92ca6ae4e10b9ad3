package mna

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"artisan/internal/netlist"
	"artisan/internal/units"
)

func TestTransientRCStep(t *testing.T) {
	R, C := 1e3, 1e-6 // τ = 1 ms
	nl := netlist.New("rc step")
	nl.AddV("V1", "in", "0", 1)
	nl.AddR("R1", "in", "out", R)
	nl.AddC("C1", "out", "0", C)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	tau := R * C
	pts, err := c.Transient("out", TranOpts{TEnd: 5 * tau, Dt: tau / 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		want := 1 - math.Exp(-p.T/tau)
		if math.Abs(p.V-want) > 2e-3 {
			t.Fatalf("t=%g: v=%g, want %g", p.T, p.V, want)
		}
	}
	// Endpoint close to 1.
	if last := pts[len(pts)-1].V; math.Abs(last-0.9933) > 0.01 {
		t.Errorf("v(5τ) = %g", last)
	}
}

// Algebraic rows must not ring: a resistive divider driven by a stepped
// source holds exactly 0.5 at every timestep (this is the failure mode of
// naive trapezoidal DAE integration).
func TestTransientAlgebraicRowsExact(t *testing.T) {
	nl := netlist.New("divider step")
	nl.AddV("V1", "in", "0", 1)
	nl.AddR("R1", "in", "out", 1e3)
	nl.AddR("R2", "out", "0", 1e3)
	nl.AddC("Cfar", "far", "0", 1e-12) // a capacitor elsewhere
	nl.AddR("Rfar", "out", "far", 1e6)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := c.Transient("out", TranOpts{TEnd: 1e-6, Dt: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[1:] {
		if math.Abs(p.V-0.5) > 1e-3 {
			t.Fatalf("divider rang at t=%g: v=%g", p.T, p.V)
		}
	}
}

func TestTransientSlewLimiting(t *testing.T) {
	// Single inverting stage driving CL. Linear response to a large step
	// would start with slope gm·Vstep/CL; with saturation the slope is
	// capped at Imax/CL.
	gm, cl, imax := 1e-3, 10e-12, 5e-6
	nl := netlist.New("slew stage")
	nl.AddV("V1", "in", "0", 1) // 1 V step: deep saturation (gm·V = 1 mA ≫ 5 µA)
	nl.AddG("G1", "out", "0", "in", "0", gm)
	nl.AddR("Ro", "out", "0", 1e6)
	nl.AddC("CL", "out", "0", cl)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := c.Transient("out", TranOpts{
		TEnd: 2e-6, Dt: 1e-9,
		SatLimits: map[string]float64{"G1": imax},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Max slope over the first microsecond ≈ Imax/CL = 0.5 V/µs (negative).
	maxSlope := 0.0
	for i := 1; i < len(pts); i++ {
		s := math.Abs(pts[i].V-pts[i-1].V) / (pts[i].T - pts[i-1].T)
		if s > maxSlope {
			maxSlope = s
		}
	}
	want := imax / cl
	if !units.ApproxEqual(maxSlope, want, 0.05) {
		t.Errorf("slew = %g V/s, want %g", maxSlope, want)
	}
	// And the linear run must be much faster initially.
	lin, err := c.Transient("out", TranOpts{TEnd: 2e-6, Dt: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	linSlope := math.Abs(lin[1].V-lin[0].V) / (lin[1].T - lin[0].T)
	if linSlope < 10*maxSlope {
		t.Errorf("linear slope %g should dwarf saturated %g", linSlope, maxSlope)
	}
}

func TestTransientMatchesACSmallSignal(t *testing.T) {
	// For a small step the saturating and linear runs agree.
	nl := netlist.New("small step")
	nl.AddV("V1", "in", "0", 1e-4)
	nl.AddG("G1", "0", "out", "in", "0", 1e-3)
	nl.AddR("Ro", "out", "0", 1e5)
	nl.AddC("CL", "out", "0", 1e-12)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := c.Transient("out", TranOpts{TEnd: 1e-6, Dt: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	sat, err := c.Transient("out", TranOpts{TEnd: 1e-6, Dt: 1e-9,
		SatLimits: map[string]float64{"G1": 50e-6}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range lin {
		if math.Abs(lin[i].V-sat[i].V) > 1e-6 {
			t.Fatalf("small-signal mismatch at %d: %g vs %g", i, lin[i].V, sat[i].V)
		}
	}
	// Final value = gm·Ro·Vstep = 10 mV.
	if f := lin[len(lin)-1].V; !units.ApproxEqual(f, 0.01, 1e-3) {
		t.Errorf("final = %g, want 0.01", f)
	}
}

func TestTransientCustomInput(t *testing.T) {
	// A ramp input into an RC: output follows with a lag.
	nl := netlist.New("ramp")
	nl.AddV("V1", "in", "0", 1)
	nl.AddR("R1", "in", "out", 1e3)
	nl.AddC("C1", "out", "0", 1e-9) // τ = 1 µs
	c, _ := Compile(nl)
	ramp := func(t float64) float64 { return t / 1e-5 } // reaches 1 at 10 µs
	pts, err := c.Transient("out", TranOpts{TEnd: 1e-5, Dt: 1e-8, Input: ramp})
	if err != nil {
		t.Fatal(err)
	}
	// Steady-state ramp lag = τ·slope = 0.1; check near the end.
	last := pts[len(pts)-1]
	want := ramp(last.T) - 0.1
	if math.Abs(last.V-want) > 5e-3 {
		t.Errorf("ramp following: v=%g, want %g", last.V, want)
	}
}

func TestTransientValidation(t *testing.T) {
	nl := netlist.New("x")
	nl.AddV("V1", "in", "0", 1)
	nl.AddR("R1", "in", "out", 1e3)
	nl.AddC("C1", "out", "0", 1e-9)
	c, _ := Compile(nl)
	inf, nan := math.Inf(1), math.NaN()
	for _, w := range []struct{ tEnd, dt float64 }{
		{0, 1e-9},
		{1e-6, 1e-5}, // dt > TEnd
		{nan, 1e-9},
		{inf, 1e-9},
		{1e-6, nan},
		{inf, inf},
		{1e300, 1e-9},  // TEnd/Dt overflows float64
		{1e300, 1e200}, // TEnd/Dt overflows int
	} {
		_, err := c.Transient("out", TranOpts{TEnd: w.tEnd, Dt: w.dt})
		if err == nil || !strings.Contains(err.Error(), "bad transient window") {
			t.Errorf("tEnd=%g dt=%g: err = %v, want bad transient window", w.tEnd, w.dt, err)
		}
	}
	if _, err := c.Transient("nope", TranOpts{TEnd: 1e-6, Dt: 1e-9}); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := c.Transient("out", TranOpts{TEnd: 1e-6, Dt: 1e-9,
		SatLimits: map[string]float64{"R1": 1e-6}}); err == nil {
		t.Error("saturation on resistor accepted")
	}
	if _, err := c.Transient("out", TranOpts{TEnd: 1e-6, Dt: 1e-9,
		SatLimits: map[string]float64{"Gnope": 1e-6}}); err == nil {
		t.Error("saturation on missing device accepted")
	}
	nl2 := netlist.New("y")
	nl2.AddV("V1", "in", "0", 1)
	nl2.AddG("G1", "0", "out", "in", "0", 1e-3)
	nl2.AddR("Ro", "out", "0", 1e3)
	c2, _ := Compile(nl2)
	if _, err := c2.Transient("out", TranOpts{TEnd: 1e-6, Dt: 1e-9,
		SatLimits: map[string]float64{"G1": -1}}); err == nil {
		t.Error("negative Imax accepted")
	}
}

// Steady-state sine cross-check: driving the circuit with a sinusoid and
// measuring the settled output amplitude must reproduce |H(jω)| from the
// AC analysis — the two engines share nothing but the stamps, so this
// catches integration errors that a step test can miss.
func TestTransientSineMatchesAC(t *testing.T) {
	nl := netlist.New("sine check")
	nl.AddV("V1", "in", "0", 1)
	nl.AddR("R1", "in", "mid", 10e3)
	nl.AddC("C1", "mid", "0", 1e-9)
	nl.AddR("R2", "mid", "out", 20e3)
	nl.AddC("C2", "out", "0", 0.5e-9)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{3e3, 15e3, 60e3} {
		h, err := c.TFAt("out", f)
		if err != nil {
			t.Fatal(err)
		}
		wantAmp := cmplx.Abs(h)
		period := 1 / f
		pts, err := c.Transient("out", TranOpts{
			TEnd: 30 * period, Dt: period / 200,
			Input: func(tt float64) float64 { return math.Sin(2 * math.Pi * f * tt) },
		})
		if err != nil {
			t.Fatal(err)
		}
		// Peak amplitude over the last five periods (transient settled).
		amp := 0.0
		tail := pts[len(pts)-5*200:]
		for _, p := range tail {
			if a := math.Abs(p.V); a > amp {
				amp = a
			}
		}
		if !units.ApproxEqual(amp, wantAmp, 0.02) {
			t.Errorf("f=%g: transient amplitude %g vs AC |H| %g", f, amp, wantAmp)
		}
	}
}

// The final transient sample must land exactly on TEnd even when the
// window is not a whole multiple of Dt: the last step is clamped, not
// overshot (settling-time measurements must not read past the requested
// window).
func TestTransientEndTimeClamped(t *testing.T) {
	R, C := 1e3, 1e-6 // τ = 1 ms
	nl := netlist.New("rc clamp")
	nl.AddV("V1", "in", "0", 1)
	nl.AddR("R1", "in", "out", R)
	nl.AddC("C1", "out", "0", C)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	tau := R * C
	tEnd, dt := 1.05e-3, 1e-4 // 10.5 steps: needs one clamped half-step
	pts, err := c.Transient("out", TranOpts{TEnd: tEnd, Dt: dt})
	if err != nil {
		t.Fatal(err)
	}
	last := pts[len(pts)-1]
	if last.T != tEnd {
		t.Errorf("final sample at t=%g, want exactly %g", last.T, tEnd)
	}
	for _, p := range pts {
		if p.T > tEnd {
			t.Errorf("sample at t=%g overshoots TEnd=%g", p.T, tEnd)
		}
	}
	if want := 11 + 1; len(pts) != want {
		t.Errorf("%d samples, want %d (10 full steps + 1 clamped + t=0)", len(pts), want)
	}
	// The clamped step must still integrate correctly.
	if want := 1 - math.Exp(-tEnd/tau); math.Abs(last.V-want) > 2e-3 {
		t.Errorf("v(TEnd) = %g, want %g", last.V, want)
	}
	// A window that IS a whole multiple of Dt must not gain a micro-step.
	pts, err = c.Transient("out", TranOpts{TEnd: 1e-3, Dt: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 11 {
		t.Errorf("divisible window: %d samples, want 11", len(pts))
	}
	if last := pts[len(pts)-1]; last.T != 1e-3 {
		t.Errorf("divisible window ends at %g, want 1e-3", last.T)
	}
}

// A singular consistent-initialization system means no valid t=0⁺ state
// exists; it must surface as an error, not silently fall through to an
// all-zero state. The circuit below has an 'out' row that vanishes from
// the linear part once its two saturating VCCS stamps are removed, so the
// init matrix (G_lin + C/δ) is singular while the Newton Jacobian (which
// re-adds the effective transconductances) would not be.
func TestTransientInitSingularSurfaced(t *testing.T) {
	nl := netlist.New("init singular")
	nl.AddV("V1", "in", "0", 1)
	nl.AddG("G1", "out", "0", "in", "0", 1e-3)
	nl.AddG("G2", "out", "0", "out", "0", 1e-4) // diode-connected load
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := c.Transient("out", TranOpts{
		TEnd: 1e-6, Dt: 1e-9,
		SatLimits: map[string]float64{"G1": 1e-5, "G2": 1e-5},
	})
	if err == nil {
		t.Fatal("singular consistent initialization did not error")
	}
	if pts != nil {
		t.Errorf("got %d waveform points alongside the error", len(pts))
	}
	if !strings.Contains(err.Error(), "initialization") {
		t.Errorf("error %q does not identify the initialization phase", err)
	}
}

// Newton exhaustion must return the non-convergence error and no partial
// waveform.
func TestTransientNewtonNonConvergence(t *testing.T) {
	gm, cl, imax := 1e-3, 10e-12, 5e-6
	nl := netlist.New("newton budget")
	nl.AddV("V1", "in", "0", 1) // deep saturation: needs several iterations
	nl.AddG("G1", "out", "0", "in", "0", gm)
	nl.AddR("Ro", "out", "0", 1e6)
	nl.AddC("CL", "out", "0", cl)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := c.Transient("out", TranOpts{
		TEnd: 2e-6, Dt: 1e-9,
		SatLimits: map[string]float64{"G1": imax},
		MaxNewton: 1,
	})
	if err == nil {
		t.Fatal("MaxNewton=1 on a deeply saturating step converged")
	}
	if pts != nil {
		t.Errorf("got %d partial waveform points alongside the error", len(pts))
	}
	if !strings.Contains(err.Error(), "converge") {
		t.Errorf("error %q does not report non-convergence", err)
	}
}

// newtonStepApply's relative step must divide by the PRE-update iterate:
// with x=2 and a step of 1.5 the relative step is 1.5/2, not 1.5/0.5.
func TestNewtonStepApplyPreUpdateDenominator(t *testing.T) {
	x := []float64{2}
	rel := newtonStepApply(x, []float64{1.5})
	if math.Abs(x[0]-0.5) > 1e-15 {
		t.Fatalf("x after step = %g, want 0.5", x[0])
	}
	if want := 1.5 / (2 + 1e-6); math.Abs(rel-want) > 1e-12 {
		t.Errorf("rel = %g, want %g (pre-update denominator)", rel, want)
	}
	// A step that exactly cancels the component must not read as
	// converged: the iterate moved by its whole magnitude.
	x = []float64{0.25}
	if rel := newtonStepApply(x, []float64{0.25}); rel < 0.9 {
		t.Errorf("cancelling step rel = %g, want ≈1", rel)
	}
}

// satDevices rejection coverage beyond the basic validation test: VCVS
// devices, zero limits, and mixed found/missing limit sets.
func TestSatDevicesRejections(t *testing.T) {
	nl := netlist.New("satdev")
	nl.AddV("V1", "in", "0", 1)
	nl.AddG("G1", "0", "mid", "in", "0", 1e-3)
	nl.AddR("Rm", "mid", "0", 1e5)
	nl.AddE("E1", "out", "0", "mid", "0", 2)
	nl.AddR("Ro", "out", "0", 1e3)
	nl.AddC("CL", "out", "0", 1e-12)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	opts := func(lim map[string]float64) TranOpts {
		return TranOpts{TEnd: 1e-6, Dt: 1e-9, SatLimits: lim}
	}
	if _, err := c.Transient("out", opts(map[string]float64{"E1": 1e-6})); err == nil {
		t.Error("saturation on VCVS accepted")
	}
	if _, err := c.Transient("out", opts(map[string]float64{"V1": 1e-6})); err == nil {
		t.Error("saturation on voltage source accepted")
	}
	if _, err := c.Transient("out", opts(map[string]float64{"G1": 0})); err == nil {
		t.Error("zero Imax accepted")
	}
	if _, err := c.Transient("out", opts(map[string]float64{"G1": 1e-6, "Gmissing": 1e-6})); err == nil {
		t.Error("partially-missing limit set accepted")
	}
	// And the happy path still works with the same circuit.
	if _, err := c.Transient("out", opts(map[string]float64{"G1": 1e-6})); err != nil {
		t.Errorf("valid saturating run failed: %v", err)
	}
}

// Repeated transient runs on one circuit must reuse its transient
// scratch: only the returned waveform and a handful of setup crumbs may
// allocate.
func TestTransientSteadyStateAllocs(t *testing.T) {
	nl := netlist.New("alloc")
	nl.AddV("V1", "in", "0", 1)
	nl.AddG("G1", "0", "out", "in", "0", 1e-3)
	nl.AddR("Ro", "out", "0", 1e5)
	nl.AddC("CL", "out", "0", 1e-12)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	opts := TranOpts{TEnd: 1e-7, Dt: 1e-9, SatLimits: map[string]float64{"G1": 50e-6}}
	if _, err := c.Transient("out", opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.Transient("out", opts); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: the returned points slice, the satDevices slice, and the
	// default-Input closure — nothing proportional to the step count.
	if allocs > 8 {
		t.Errorf("Transient allocates %.1f/op in steady state, want ≤ 8", allocs)
	}
}
