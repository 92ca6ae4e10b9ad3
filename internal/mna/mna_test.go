package mna

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"artisan/internal/netlist"
	"artisan/internal/telemetry"
	"artisan/internal/units"
)

func compileOK(t *testing.T, nl *netlist.Netlist) *Circuit {
	t.Helper()
	c, err := Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

func TestVoltageDivider(t *testing.T) {
	nl := netlist.New("divider")
	nl.AddV("V1", "in", "0", 1)
	nl.AddR("R1", "in", "out", 1e3)
	nl.AddR("R2", "out", "0", 1e3)
	c := compileOK(t, nl)
	for _, f := range []float64{1, 1e3, 1e6} {
		h, err := c.TFAt("out", f)
		if err != nil {
			t.Fatal(err)
		}
		if !units.ApproxEqual(cmplx.Abs(h), 0.5, 1e-9) {
			t.Errorf("divider at %g Hz: |H| = %g, want 0.5", f, cmplx.Abs(h))
		}
	}
}

func TestRCLowPass(t *testing.T) {
	R, C := 1e3, 1e-6
	nl := netlist.New("rc lowpass")
	nl.AddV("V1", "in", "0", 1)
	nl.AddR("R1", "in", "out", R)
	nl.AddC("C1", "out", "0", C)
	c := compileOK(t, nl)

	fc := 1 / (2 * math.Pi * R * C) // ≈ 159.15 Hz
	h, err := c.TFAt("out", fc)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(cmplx.Abs(h), 1/math.Sqrt2, 1e-6) {
		t.Errorf("|H(fc)| = %g, want 0.7071", cmplx.Abs(h))
	}
	phase := units.Deg(cmplx.Phase(h))
	if !units.ApproxEqual(phase, -45, 1e-3) {
		t.Errorf("phase(fc) = %g°, want -45°", phase)
	}

	poles, err := c.Poles(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(poles) != 1 {
		t.Fatalf("poles = %v, want exactly one", poles)
	}
	want := -1 / (R * C)
	if !units.ApproxEqual(real(poles[0]), want, 1e-6) || math.Abs(imag(poles[0])) > 1 {
		t.Errorf("pole = %v, want %g", poles[0], want)
	}
}

func TestVCCSGainStage(t *testing.T) {
	nl := netlist.New("gm stage")
	nl.AddV("V1", "in", "0", 1)
	nl.AddG("G1", "0", "out", "in", "0", 1e-3) // injects into out: +gain
	nl.AddR("Ro", "out", "0", 10e3)
	c := compileOK(t, nl)
	h, err := c.TFAt("out", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(real(h), 10, 1e-9) {
		t.Errorf("VCCS gain = %v, want +10", h)
	}

	// Inverting orientation sinks current from out.
	nl2 := netlist.New("inverting gm stage")
	nl2.AddV("V1", "in", "0", 1)
	nl2.AddG("G1", "out", "0", "in", "0", 1e-3)
	nl2.AddR("Ro", "out", "0", 10e3)
	c2 := compileOK(t, nl2)
	h2, err := c2.TFAt("out", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(real(h2), -10, 1e-9) {
		t.Errorf("inverting VCCS gain = %v, want -10", h2)
	}
}

func TestVCVS(t *testing.T) {
	nl := netlist.New("vcvs")
	nl.AddV("V1", "in", "0", 1)
	nl.AddR("Rin", "in", "0", 1e6) // keep in driven even without source row order issues
	nl.AddE("E1", "out", "0", "in", "0", -4)
	nl.AddR("Rl", "out", "0", 1e3)
	c := compileOK(t, nl)
	h, err := c.TFAt("out", 100)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(real(h), -4, 1e-9) {
		t.Errorf("VCVS out = %v, want -4", h)
	}
}

func TestISourceOrientation(t *testing.T) {
	// 1 mA from ground into node x through 1 kΩ: V(x) = +1 V when the
	// source's n- terminal is x (current enters x).
	nl := netlist.New("isource")
	nl.AddI("I1", "0", "x", 1e-3)
	nl.AddR("R1", "x", "0", 1e3)
	c := compileOK(t, nl)
	v, err := c.VoltageAt("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(real(v), 1, 1e-9) {
		t.Errorf("V(x) = %v, want 1", v)
	}
}

// Miller feedforward creates the classic RHP zero at gm/Cf.
func TestMillerRHPZero(t *testing.T) {
	gm, R, Cf, Cl := 1e-3, 10e3, 1e-12, 5e-12
	nl := netlist.New("miller zero")
	nl.AddV("V1", "in", "0", 1)
	nl.AddG("G1", "out", "0", "in", "0", gm) // inverting
	nl.AddR("Ro", "out", "0", R)
	nl.AddC("Cf", "in", "out", Cf)
	nl.AddC("Cl", "out", "0", Cl)
	c := compileOK(t, nl)

	zeros, err := c.Zeros(context.Background(), "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(zeros) != 1 {
		t.Fatalf("zeros = %v, want one", zeros)
	}
	want := gm / Cf // +1e9 rad/s, RHP
	if !units.ApproxEqual(real(zeros[0]), want, 1e-5) {
		t.Errorf("zero = %v, want %g (RHP)", zeros[0], want)
	}

	poles, err := c.Poles(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(poles) != 1 {
		t.Fatalf("poles = %v, want one (caps share the out node through Vin pin)", poles)
	}
	wantP := -1 / (R * (Cf + Cl))
	if !units.ApproxEqual(real(poles[0]), wantP, 1e-5) {
		t.Errorf("pole = %v, want %g", poles[0], wantP)
	}
}

func TestTwoStageRCPoles(t *testing.T) {
	// Two isolated RC sections separated by a unity buffer (VCVS):
	// exact poles at -1/(R1C1) and -1/(R2C2).
	nl := netlist.New("two rc")
	nl.AddV("V1", "in", "0", 1)
	nl.AddR("R1", "in", "a", 1e3)
	nl.AddC("C1", "a", "0", 1e-9)
	nl.AddE("E1", "b", "0", "a", "0", 1)
	nl.AddR("R2", "b", "out", 10e3)
	nl.AddC("C2", "out", "0", 1e-9)
	c := compileOK(t, nl)
	poles, err := c.Poles(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(poles) != 2 {
		t.Fatalf("poles = %v, want two", poles)
	}
	want := []float64{-1e6, -1e5} // sorted by magnitude: 1e5 first
	if !units.ApproxEqual(real(poles[0]), want[1], 1e-6) {
		t.Errorf("pole0 = %v, want %g", poles[0], want[1])
	}
	if !units.ApproxEqual(real(poles[1]), want[0], 1e-6) {
		t.Errorf("pole1 = %v, want %g", poles[1], want[0])
	}
}

// buildNMC is the same behavioral NMC opamp as in the netlist tests.
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

func TestNMCDCGain(t *testing.T) {
	c := compileOK(t, buildNMC())
	h, err := c.TFAt("out", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	ro3eff := 180e3 * 1e6 / (180e3 + 1e6)
	want := 25.13e-6 * 4e6 * 37.7e-6 * 1.2e6 * 251.3e-6 * ro3eff
	if !units.ApproxEqual(cmplx.Abs(h), want, 1e-3) {
		t.Errorf("|H(DC)| = %g, want %g", cmplx.Abs(h), want)
	}
	// Overall inverting: (+)(+)(−).
	if real(h) > 0 {
		t.Errorf("H(DC) = %v, want negative real part", h)
	}
}

func TestNMCUnityGainAndPhase(t *testing.T) {
	c := compileOK(t, buildNMC())
	// GBW should be near gm1/(2π·Cm1) = 1 MHz.
	pts, err := sweepPoints(c, "out", 0.1, 1e9, 40)
	if err != nil {
		t.Fatal(err)
	}
	var fu float64
	for i := 1; i < len(pts); i++ {
		if cmplx.Abs(pts[i-1].H) >= 1 && cmplx.Abs(pts[i].H) < 1 {
			// log interpolation
			a0, a1 := math.Log(cmplx.Abs(pts[i-1].H)), math.Log(cmplx.Abs(pts[i].H))
			t0, t1 := math.Log(pts[i-1].Freq), math.Log(pts[i].Freq)
			fu = math.Exp(t0 + (0-a0)*(t1-t0)/(a1-a0))
			break
		}
	}
	if fu < 0.7e6 || fu > 1.4e6 {
		t.Errorf("unity-gain frequency = %g, want ≈ 1 MHz", fu)
	}
}

func TestNMCPoles(t *testing.T) {
	c := compileOK(t, buildNMC())
	poles, err := c.Poles(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// All six capacitors span only three independent nodes (n1, n2, out),
	// so rank(C) = 3 and NMC is exactly a third-order system.
	if len(poles) != 3 {
		t.Fatalf("got %d poles (%v), want 3", len(poles), poles)
	}
	// Non-dominant poles should be a complex pair (Butterworth-style NMC).
	if imag(poles[1]) == 0 || cmplx.Abs(poles[1]-cmplx.Conj(poles[2])) > 1e-6*cmplx.Abs(poles[1]) {
		t.Errorf("non-dominant poles %v, %v: want a conjugate pair", poles[1], poles[2])
	}
	// Dominant pole ≈ −1/(Cm1·A2·A3·Ro1) where A2=gm2Ro2, A3=gm3(Ro3||RL).
	ro3eff := 180e3 * 1e6 / (180e3 + 1e6)
	a2, a3 := 37.7e-6*1.2e6, 251.3e-6*ro3eff
	wantP1 := -1 / (4e-12 * a2 * a3 * 4e6)
	if !units.ApproxEqual(real(poles[0]), wantP1, 0.05) {
		t.Errorf("dominant pole = %v, want ≈ %g rad/s", poles[0], wantP1)
	}
	for _, p := range poles {
		if real(p) >= 0 {
			t.Errorf("pole %v in RHP; NMC design should be stable", p)
		}
	}
}

// Reconstruct |H| from poles/zeros/DC gain and compare with the AC sweep —
// a strong cross-check that both paths agree.
func TestPoleZeroSweepConsistency(t *testing.T) {
	c := compileOK(t, buildNMC())
	poles, err := c.Poles(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	zeros, err := c.Zeros(context.Background(), "out")
	if err != nil {
		t.Fatal(err)
	}
	h0, err := c.TFAt("out", 0.001)
	if err != nil {
		t.Fatal(err)
	}
	k := cmplx.Abs(h0)
	for _, f := range []float64{10, 1e3, 1e5, 1e6, 1e7} {
		s := Omega(f)
		mag := k
		for _, z := range zeros {
			mag *= cmplx.Abs(1 - s/z)
		}
		for _, p := range poles {
			mag /= cmplx.Abs(1 - s/p)
		}
		h, err := c.TFAt("out", f)
		if err != nil {
			t.Fatal(err)
		}
		if !units.ApproxEqual(mag, cmplx.Abs(h), 0.02) {
			t.Errorf("at %g Hz: reconstructed %g vs swept %g", f, mag, cmplx.Abs(h))
		}
	}
}

func TestSweepValidation(t *testing.T) {
	c := compileOK(t, buildNMC())
	for _, r := range []struct{ fStart, fStop float64 }{
		{-1, 10},
		{10, 1},
		{math.NaN(), 10},
		{1, math.NaN()},
		{1, math.Inf(1)},
		{5e-324, 1e10}, // fStop/fStart overflows
	} {
		_, err := sweepPoints(c, "out", r.fStart, r.fStop, 10)
		if err == nil || !strings.Contains(err.Error(), "bad sweep range") {
			t.Errorf("range [%g, %g]: err = %v, want bad sweep range", r.fStart, r.fStop, err)
		}
	}
	if _, err := sweepPoints(c, "out", 1, 10, 0); err == nil {
		t.Error("zero perDecade accepted")
	}
	if _, err := sweepPoints(c, "nonode", 1, 10, 10); err == nil {
		t.Error("unknown node accepted")
	}
	pts, err := sweepPoints(c, "out", 1, 1e3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Freq != 1 || pts[len(pts)-1].Freq != 1e3 {
		t.Errorf("sweep endpoints %g..%g, want 1..1000", pts[0].Freq, pts[len(pts)-1].Freq)
	}
}

// sweepPoints collects every point of c's sweep.
func sweepPoints(c *Circuit, out string, fStart, fStop float64, perDecade int) ([]TFPoint, error) {
	var pts []TFPoint
	_, err := c.Sweep(context.Background(), out, fStart, fStop, perDecade, func(p TFPoint) bool {
		pts = append(pts, p)
		return true
	})
	return pts, err
}

// TestSweepStopsWhenVisitDeclines: the sweep hands over the points in
// order and solves none after the one its visitor declines; the count it
// returns, and the traced span's points attribute, are the points solved.
func TestSweepStopsWhenVisitDeclines(t *testing.T) {
	c := compileOK(t, buildNMC())
	all, err := sweepPoints(c, "out", 1, 1e9, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []int{0, 1, 50, len(all) - 1, len(all)} {
		tracer := telemetry.NewTracer(1)
		var seen []TFPoint
		n, err := c.Sweep(telemetry.WithTracer(context.Background(), tracer), "out", 1, 1e9, 12,
			func(p TFPoint) bool {
				seen = append(seen, p)
				return len(seen) <= stop
			})
		if err != nil {
			t.Fatal(err)
		}
		want := min(stop+1, len(all))
		if n != want || len(seen) != want {
			t.Errorf("declined after %d points: solved %d, visited %d, want %d", stop, n, len(seen), want)
		}
		for i, p := range seen {
			if p != all[i] {
				t.Fatalf("declined after %d points: point %d is %v, the full sweep's %v", stop, i, p, all[i])
			}
		}
		sp := tracer.Traces()[0]
		if got := sp.Attrs()[1]; got != (telemetry.Attr{Key: "points", Value: strconv.Itoa(want)}) {
			t.Errorf("declined after %d points: span attribute %v, want points=%d", stop, got, want)
		}
	}
}

// TestSweepGridBounded: the shared grid equals logFreqs for every key,
// and the memo stops storing at maxSweepGrids keys.
func TestSweepGridBounded(t *testing.T) {
	for k := 1; k <= 2*maxSweepGrids; k++ {
		fStop := 1e3 * float64(k)
		got, want := sweepGrid(1, fStop, 7), logFreqs(1, fStop, 7)
		if len(got) != len(want) {
			t.Fatalf("key %d: %d points, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("key %d point %d: %g, want %g", k, i, got[i], want[i])
			}
		}
	}
	sweepGrids.mu.Lock()
	n := len(sweepGrids.m)
	sweepGrids.mu.Unlock()
	if n != maxSweepGrids {
		t.Errorf("memo holds %d grids, want %d", n, maxSweepGrids)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := netlist.New("floating")
	bad.AddR("R1", "a", "b", 1e3)
	if _, err := Compile(bad); err == nil {
		t.Error("floating netlist accepted")
	}
	if _, err := Compile(netlist.New("empty")); err == nil {
		t.Error("empty netlist accepted")
	}
}

func TestNodeIndex(t *testing.T) {
	c := compileOK(t, buildNMC())
	if _, err := c.NodeIndex("0"); err == nil {
		t.Error("ground should have no index")
	}
	if _, err := c.NodeIndex("zz"); err == nil {
		t.Error("unknown node should error")
	}
	if i, err := c.NodeIndex("out"); err != nil || i < 0 {
		t.Errorf("NodeIndex(out) = %d, %v", i, err)
	}
	if got := len(c.NodeNames()); got != 4 {
		t.Errorf("NodeNames len = %d, want 4", got)
	}
}

// Property: LU solve yields a small residual on random well-conditioned
// complex systems.
func TestLUSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
			a.Add(i, i, complex(float64(n), 0)) // diagonal dominance
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x, err := Factor(a).Solve(b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			r := b[i]
			for j := 0; j < n; j++ {
				r -= a.At(i, j) * x[j]
			}
			if cmplx.Abs(r) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScaledDet(t *testing.T) {
	// Determinant of a diagonal matrix with extreme entries must not
	// overflow or underflow.
	n := 40
	a := NewMatrix(n)
	for i := 0; i < n; i++ {
		v := 1e12
		if i%2 == 0 {
			v = 1e-12
		}
		a.Set(i, i, complex(v, 0))
	}
	d := Det(a)
	if d.Zero() {
		t.Fatal("det is zero")
	}
	// det = 1 exactly (1e12^20 * 1e-12^20)
	if math.Abs(d.Log10Mag()) > 1e-6 {
		t.Errorf("log10|det| = %g, want 0", d.Log10Mag())
	}
}

func TestSingularMatrix(t *testing.T) {
	a := NewMatrix(2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	lu := Factor(a)
	if lu.OK() {
		t.Error("singular matrix reported OK")
	}
	if _, err := lu.Solve([]complex128{1, 1}); err == nil {
		t.Error("Solve on singular matrix should fail")
	}
	if !lu.Det().Zero() {
		t.Errorf("det = %v, want zero", lu.Det())
	}
}

// TestSingularErrorsTyped: every singular-system error matches
// ErrSingular and keeps its message. Two voltage sources in parallel pin
// one node twice, so A(s) and the transient systems are singular, and
// det(G + sC) ≡ 0 leaves the pole find no shift to factor.
func TestSingularErrorsTyped(t *testing.T) {
	nl := netlist.New("parallel sources")
	nl.AddV("V1", "in", "0", 1)
	nl.AddV("V2", "in", "0", 2)
	nl.AddR("R1", "in", "out", 1e3)
	nl.AddC("C1", "out", "0", 1e-12)
	c := compileOK(t, nl)
	var sparse SparseLU
	sparse.Analyze(NewPattern(1, []int{0}, []int{0}))
	sparse.Factor([]float64{0})
	_, solveErr := c.SolveAt(Omega(1e3))
	_, noiseErr := c.NoiseSweep("out", 1, 10, 1, NoiseOpts{})
	_, tranErr := c.Transient("out", TranOpts{TEnd: 1e-6, Dt: 1e-9})
	_, polesErr := c.Poles(context.Background())
	for _, tc := range []struct {
		err  error
		want string
	}{
		{Factor(NewMatrix(2)).SolveInto(make([]complex128, 2), make([]complex128, 2)), "mna: singular matrix"},
		{solveErr, "mna: solve at s=(0+6283.185307179586i): mna: singular matrix"},
		{sparse.SolveInto(make([]float64, 1), make([]float64, 1)), "mna: singular sparse matrix"},
		{noiseErr, "mna: singular at 1 Hz"},
		{tranErr, "mna: transient consistent initialization singular (dt=1e-09)"},
		{polesErr, "mna: root pencil singular at s = 0 and s = -1e+09 rad/s"},
	} {
		if !errors.Is(tc.err, ErrSingular) {
			t.Errorf("%v does not match ErrSingular", tc.err)
		}
		if tc.err == nil || tc.err.Error() != tc.want {
			t.Errorf("error %v, want %q", tc.err, tc.want)
		}
	}
	if errors.Is(ErrNewtonNoConverge, ErrSingular) || errors.Is(ErrNoConverge, ErrSingular) {
		t.Error("a non-convergence sentinel matches ErrSingular")
	}
}

func TestRatioAndLogMag(t *testing.T) {
	d := ScaledDet{Mant: complex(0.5, 0), Exp: 10}
	e := ScaledDet{Mant: complex(0.25, 0), Exp: 8}
	if r := d.Ratio(e); !units.ApproxEqual(real(r), 8, 1e-12) {
		t.Errorf("ratio = %v, want 8", r)
	}
	if !cmplx.IsInf(d.Ratio(ScaledDet{})) {
		t.Error("ratio by zero should be Inf")
	}
}
