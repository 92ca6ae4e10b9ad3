package mna

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"artisan/internal/netlist"
)

// TestWorkspaceMatchesCircuit pins the workspace fast path to the public
// entry points: identical solutions.
func TestWorkspaceMatchesCircuit(t *testing.T) {
	c := compileOK(t, buildNMC())
	w := c.NewWorkspace()
	for _, f := range []float64{1, 1e3, 1e6, 1e9} {
		s := Omega(f)
		want, err := c.SolveAt(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.SolveAt(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("at %g Hz: x[%d] = %v (workspace) vs %v (circuit)", f, i, got[i], want[i])
			}
		}
	}
}

// TestWorkspaceAllocFree is the steady-state allocation guard the hot path
// is built around: solves and determinant evaluations through a Workspace
// (and the pooled VoltageAt entry point) must not allocate.
func TestWorkspaceAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool caching; allocation counts are meaningless")
	}
	c := compileOK(t, buildNMC())
	w := c.NewWorkspace()
	s := Omega(1e6)
	if _, err := w.SolveAt(s); err != nil { // warm up
		t.Fatal(err)
	}
	checks := []struct {
		name string
		fn   func()
	}{
		{"Workspace.SolveAt", func() {
			if _, err := w.SolveAt(s); err != nil {
				t.Fatal(err)
			}
		}},
		{"Workspace.DetAt", func() { w.DetAt(s) }},
		{"Workspace.NumerDetAt", func() {
			if _, err := w.NumerDetAt("out", s); err != nil {
				t.Fatal(err)
			}
		}},
		{"Circuit.VoltageAt", func() {
			if _, err := c.VoltageAt("out", s); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, ck := range checks {
		ck.fn() // warm the pool outside the measured runs
		if allocs := testing.AllocsPerRun(200, ck.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", ck.name, allocs)
		}
	}
	// Circuit.SolveAt returns a caller-owned vector: exactly that one
	// allocation is allowed.
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.SolveAt(s); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("Circuit.SolveAt: %v allocs/op, want <= 1 (the result slice)", allocs)
	}
}

// TestSweepMatchesVoltageAt is the byte-identity property of the sweep:
// across random ladders, every swept point must equal a lone VoltageAt
// solve at its frequency bit for bit, so reusing one workspace across the
// points leaks no state from one solve into the next.
func TestSweepMatchesVoltageAt(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl := netlist.New(fmt.Sprintf("ladder-%d", seed))
		nl.AddV("V1", "in", "0", 1)
		prev := "in"
		stages := 2 + rng.Intn(5)
		for i := 0; i < stages; i++ {
			node := fmt.Sprintf("n%d", i)
			if i == stages-1 {
				node = "out"
			}
			nl.AddR(fmt.Sprintf("R%d", i), prev, node, math.Pow(10, 2+3*rng.Float64()))
			nl.AddC(fmt.Sprintf("C%d", i), node, "0", math.Pow(10, -13+3*rng.Float64()))
			prev = node
		}
		if rng.Intn(2) == 1 {
			nl.AddG("Gx", "out", "0", "in", "0", 1e-4*(1+rng.Float64()))
		}
		c := compileOK(t, nl)
		pts, err := c.Sweep(context.Background(), "out", 1e-1, 1e9, 24)
		if err != nil {
			t.Fatalf("seed %d: sweep: %v", seed, err)
		}
		if len(pts) != 241 {
			t.Fatalf("seed %d: %d points, want 241", seed, len(pts))
		}
		for i, p := range pts {
			h, err := c.VoltageAt("out", Omega(p.Freq))
			if err != nil {
				t.Fatalf("seed %d point %d: %v", seed, i, err)
			}
			if math.Float64bits(real(p.H)) != math.Float64bits(real(h)) ||
				math.Float64bits(imag(p.H)) != math.Float64bits(imag(h)) {
				t.Fatalf("seed %d point %d at %g Hz: swept %v vs lone solve %v",
					seed, i, p.Freq, p.H, h)
			}
		}
	}
}

// polyDet builds a detFunc for a monic polynomial given its roots — a
// controlled stand-in for an MNA characteristic determinant.
func polyDet(roots []complex128) detFunc {
	return func(s complex128) ScaledDet {
		m, e := complex(1, 0), 0
		for _, r := range roots {
			m *= s - r
			m, e = normalizeDet(m, e)
		}
		return ScaledDet{m, e}
	}
}

// TestAberthFindsKnownRoots sanity-checks the root finder on a polynomial
// with known well-separated roots.
func TestAberthFindsKnownRoots(t *testing.T) {
	want := []complex128{-1e3, -2e5, -3e7}
	got, err := aberth(polyDet(want), len(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d roots (%v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-6*cmplx.Abs(want[i]) {
			t.Errorf("root %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestAberthRejectsSpuriousRoots is the regression test for the silent
// non-convergence bug: with an overestimated degree the iteration has more
// approximants than roots, and the old code returned whatever it had after
// the iteration budget — spurious points reported as poles. It must now
// fail explicitly.
func TestAberthRejectsSpuriousRoots(t *testing.T) {
	f := polyDet([]complex128{-1e3, -2e5, -3e7})
	if roots, err := aberth(f, 6); err == nil {
		t.Fatalf("aberth with overestimated degree returned %v, want ErrNoConverge", roots)
	}
}

// TestAberthIllConditionedCircuit drives the same failure from a real
// compiled circuit: the NMC opamp's characteristic determinant with a
// deliberately inflated degree is an ill-conditioned root-finding problem
// (three extra approximants with no root to land on) and must be reported,
// not silently truncated into a pole list.
func TestAberthIllConditionedCircuit(t *testing.T) {
	c := compileOK(t, buildNMC())
	w := c.NewWorkspace()
	f := func(s complex128) ScaledDet { return w.DetAt(s) }
	deg, err := polyDegree(f)
	if err != nil {
		t.Fatal(err)
	}
	if roots, err := aberth(f, deg+3); err == nil {
		t.Fatalf("aberth(deg+3) returned %v, want error", roots)
	}
	// The well-posed problem on the same circuit still succeeds.
	if _, err := aberth(f, deg); err != nil {
		t.Fatalf("aberth(deg) on NMC: %v", err)
	}
}

// TestPolesMemoizedDegree exercises the degree memoization: repeated calls
// agree with the first (and with each other).
func TestPolesMemoizedDegree(t *testing.T) {
	c := compileOK(t, buildNMC())
	first, err := c.Poles(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Poles(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(again) {
		t.Fatalf("pole count changed across calls: %d vs %d", len(first), len(again))
	}
	z1, err := c.Zeros(context.Background(), "out")
	if err != nil {
		t.Fatal(err)
	}
	z2, err := c.Zeros(context.Background(), "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(z1) != len(z2) {
		t.Fatalf("zero count changed across calls: %d vs %d", len(z1), len(z2))
	}
}

// TestConcurrentAnalyses hammers one compiled circuit from many goroutines
// (the server and the BO tuner share circuits exactly this way); run with
// -race this is the workspace-pool safety gate.
func TestConcurrentAnalyses(t *testing.T) {
	c := compileOK(t, buildNMC())
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 5; i++ {
				if _, err := c.Sweep(context.Background(), "out", 1, 1e9, 12); err != nil {
					done <- err
					return
				}
				if _, err := c.Poles(context.Background()); err != nil {
					done <- err
					return
				}
				if _, err := c.Zeros(context.Background(), "out"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
