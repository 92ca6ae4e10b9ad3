package mna

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"artisan/internal/netlist"
)

// TestWorkspaceAllocFree is the steady-state allocation guard the hot path
// is built around: solves and determinant evaluations in a circuit's own
// scratch must not allocate once the first call has made it.
func TestWorkspaceAllocFree(t *testing.T) {
	c := compileOK(t, buildNMC())
	j, err := c.NodeIndex("out")
	if err != nil {
		t.Fatal(err)
	}
	s := Omega(1e6)
	checks := []struct {
		name string
		fn   func()
	}{
		{"SolveAt", func() {
			if _, err := c.SolveAt(s); err != nil {
				t.Fatal(err)
			}
		}},
		{"DetAt", func() { c.DetAt(s) }},
		{"DetAt/real", func() { c.DetAt(-1e6) }},
		{"numerDet", func() { c.numerDet(j, s) }},
		{"VoltageAt", func() {
			if _, err := c.VoltageAt("out", s); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, ck := range checks {
		ck.fn() // the first call may make the scratch
		if allocs := testing.AllocsPerRun(200, ck.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", ck.name, allocs)
		}
	}
}

// TestSweepMatchesVoltageAt is the byte-identity property of the sweep:
// across random ladders, every swept point must equal a lone VoltageAt
// solve at its frequency bit for bit, so reusing the circuit's scratch
// across the points leaks no state from one solve into the next.
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
		pts, err := sweepPoints(c, "out", 1e-1, 1e9, 24)
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
	f := c.DetAt
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

// TestPolesZerosRepeatable: repeated Poles and Zeros calls on one
// circuit agree with the first.
func TestPolesZerosRepeatable(t *testing.T) {
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

// TestRestampedPolesOpenCapacitor: a Restamped variant counts its own
// poles. Scaling a generated circuit's first capacitor to zero removes a
// natural frequency, so the variant must find as many poles as the
// netlist without that capacitor, even after its base found its own.
func TestRestampedPolesOpenCapacitor(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	const n = 200
	miss, first := 0, ""
	for ci := 0; ci < n; ci++ {
		nl := genCircuit(rng)
		base := compileOK(t, nl)
		if _, err := base.Poles(ctx); err != nil {
			t.Fatalf("circuit %d: base poles: %v", ci, err)
		}
		k := slices.IndexFunc(nl.Devices, func(d netlist.Device) bool { return d.Kind == netlist.Capacitor })
		scale := make([]float64, len(nl.Devices))
		for i := range scale {
			scale[i] = 1
		}
		scale[k] = 0
		open := nl.Clone()
		open.Remove(nl.Devices[k].Name)
		want, err := compileOK(t, open).Poles(ctx)
		if err != nil {
			t.Fatalf("circuit %d without %s: %v", ci, nl.Devices[k].Name, err)
		}
		variant, err := base.Restamped(scale, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := variant.Poles(ctx)
		if err != nil || len(got) != len(want) {
			if miss == 0 {
				first = fmt.Sprintf("circuit %d with %s open: %d poles (err %v), want %d",
					ci, nl.Devices[k].Name, len(got), err, len(want))
			}
			miss++
		}
	}
	if miss > 0 {
		t.Fatalf("%d of %d restamped variants miscount their poles; first: %s", miss, n, first)
	}
}
