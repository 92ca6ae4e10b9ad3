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

// TestRCLadderPoles is the root finder's analytic oracle: a source
// driving n equal RC sections (series R, shunt C) has its poles at
// −4·sin²((2k−1)π/(4n+2))/RC, k = 1..n. The Aberth finder rejected the
// 66-section ladder ("implausible polynomial degree 66").
func TestRCLadderPoles(t *testing.T) {
	const R, C = 1e3, 1e-9
	for _, n := range []int{3, 10, 66} {
		nl := netlist.New("rc ladder")
		nl.AddV("V1", "in", "0", 1)
		prev := "in"
		for i := 0; i < n; i++ {
			node := fmt.Sprintf("n%d", i)
			nl.AddR(fmt.Sprintf("R%d", i), prev, node, R)
			nl.AddC(fmt.Sprintf("C%d", i), node, "0", C)
			prev = node
		}
		poles, err := compileOK(t, nl).Poles(context.Background())
		if err != nil {
			t.Fatalf("%d sections: %v", n, err)
		}
		if len(poles) != n {
			t.Fatalf("%d sections: %d poles", n, len(poles))
		}
		for k := 1; k <= n; k++ {
			s := math.Sin(float64(2*k-1) * math.Pi / float64(4*n+2))
			want := -4 * s * s / (R * C)
			if got := poles[k-1]; cmplx.Abs(got-complex(want, 0)) > 1e-9*math.Abs(want) {
				t.Errorf("%d sections: pole %d = %v, want %g", n, k, got, want)
			}
		}
	}
}

// TestCapacitorOnlyNodePoles: a node reached only through capacitors
// makes G singular, so the eigenvalue solve takes a nonzero shift. The
// natural frequency at s = 0 is reported exactly, beside
// −1/(R·(C1 + C2C3/(C2+C3))) = −666 667 rad/s.
func TestCapacitorOnlyNodePoles(t *testing.T) {
	nl := netlist.New("capacitor-only node")
	nl.AddV("V1", "in", "0", 1)
	nl.AddR("R1", "in", "out", 1e3)
	nl.AddC("C1", "out", "0", 1e-9)
	nl.AddC("C2", "out", "x", 1e-9)
	nl.AddC("C3", "x", "0", 1e-9)
	poles, err := compileOK(t, nl).Poles(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := -1 / (1e3 * 1.5e-9)
	if len(poles) != 2 || poles[0] != 0 || cmplx.Abs(poles[1]-complex(want, 0)) > 1e-9*math.Abs(want) {
		t.Errorf("poles %v, want [0 %g]", poles, want)
	}
}

// TestRootsScaleWithCapacitance is the metamorphic relation of the root
// find: scaling every capacitor by k (through Restamped) scales every
// pole and zero by 1/k. Over generated circuits at k = 1e-3 and k = 10
// the counts are equal and the roots agree within 1e-6 relative, among
// the roots below maxRootMag on both sides; a circuit with a root
// within a factor 2 of the cut on either side, which the two finds may
// place on different sides of it, is skipped.
func TestRootsScaleWithCapacitance(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	for ci := 0; ci < 100; ci++ {
		nl := genCircuit(rng)
		base := compileOK(t, nl)
		for _, k := range []float64{1e-3, 10} {
			scale := make([]float64, len(nl.Devices))
			for i, d := range nl.Devices {
				scale[i] = 1
				if d.Kind == netlist.Capacitor {
					scale[i] = k
				}
			}
			scaled, err := base.Restamped(scale, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, out := range []string{"", "out"} {
				find := func(c *Circuit) ([]complex128, error) {
					if out == "" {
						return c.Poles(ctx)
					}
					return c.Zeros(ctx, out)
				}
				want, err := find(base)
				if err != nil {
					t.Fatalf("circuit %d: %v", ci, err)
				}
				got, err := find(scaled)
				if err != nil {
					t.Fatalf("circuit %d, C×%g: %v", ci, k, err)
				}
				for i := range want {
					want[i] /= complex(k, 0)
				}
				// A root, in scaled units, is in range on both sides when
				// it and its unscaled image lie below the cut.
				top := func(r complex128) float64 { return cmplx.Abs(r) * max(k, 1) }
				near := func(r complex128) bool { return math.Abs(math.Log2(top(r)/maxRootMag)) < 1 }
				if slices.ContainsFunc(want, near) || slices.ContainsFunc(got, near) {
					continue
				}
				beyond := func(r complex128) bool { return top(r) >= maxRootMag }
				want, got = slices.DeleteFunc(want, beyond), slices.DeleteFunc(got, beyond)
				if len(got) != len(want) {
					t.Fatalf("circuit %d, C×%g (%q): %d roots %v, want %d %v",
						ci, k, out, len(got), got, len(want), want)
				}
				for i, w := range want {
					if cmplx.Abs(got[i]-w) > 1e-6*(cmplx.Abs(w)+1) {
						t.Errorf("circuit %d, C×%g (%q): root %d = %v, want %v", ci, k, out, i, got[i], w)
					}
				}
			}
		}
	}
}

// TestRootsAllocateOnlyResult: once a circuit has made its scratch, a
// Poles or Zeros call allocates only the slice it returns.
func TestRootsAllocateOnlyResult(t *testing.T) {
	c := compileOK(t, buildNMC())
	ctx := context.Background()
	for name, fn := range map[string]func() ([]complex128, error){
		"Poles": func() ([]complex128, error) { return c.Poles(ctx) },
		"Zeros": func() ([]complex128, error) { return c.Zeros(ctx, "out") },
	} {
		if _, err := fn(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() { _, _ = fn() }); allocs != 1 {
			t.Errorf("%s: %v allocs/op, want 1", name, allocs)
		}
	}
}
