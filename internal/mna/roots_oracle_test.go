package mna_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"artisan/internal/bench"
	"artisan/internal/design"
	"artisan/internal/mna"
	"artisan/internal/netlist"
	"artisan/internal/spec"
	"artisan/internal/topology"
)

// rootAgreeTol is the stated agreement between the eigenvalue roots and
// the Aberth oracle's on the pool and the detuned designs: paired roots
// a (eigen) and b (oracle) satisfy |a − b| ≤ rootAgreeTol·(|b| + 1).
// Both pass the residual check, whose Newton step estimates each root's
// distance to the true root at up to 1e-6·(|r| + 1); the largest
// distance measured there is 3.9e-7. On circuits whose values are
// scaled by up to e^±4 the determinant can resolve a root only to about
// 1e-5 of its magnitude, its Newton steps there being rounding noise, so
// the fuzz target allows fuzzAgreeTol.
const (
	rootAgreeTol = 1e-5
	fuzzAgreeTol = 1e-4
)

// checkRoots compares c's Poles and Zeros (of V(out)) with the Aberth
// oracle's roots below mna.MaxRootMag, the range Poles and Zeros report.
// Every root the eigenvalue find returns must pass the residual check.
// Where the oracle converges the find must have as many roots, the same
// verdict on whether every root lies in the open left half plane, and
// every root within rootAgreeTol of its oracle partner; with strict set,
// it must not fail either. Without strict the roots agree within fuzzAgreeTol, and
// the find may fail with mna.ErrNoConverge: a root whose position is
// uncertain at the residual tolerance can defeat the polish, where the
// oracle's iteration happens to stop on a point that passes. It reports
// whether both converged on both.
//
// The oracle's own residual check takes D' from a central difference of
// determinants, which reads a zero Newton step where the determinant
// evaluates to exactly zero and a random one where it sinks into its
// rounding noise, so on badly scaled circuits Aberth can stop on a
// spurious point, or settle two approximants on one root and miss
// another, and still pass it. Its root set counts as not converged
// unless every root passes the residual check Poles applies, the set is
// closed under conjugation (the determinants have real coefficients),
// and no two of its roots lie within rootAgreeTol of each other. So does
// a set with a root within a factor 2 of mna.MaxRootMag, which either
// finder may place on either side of it. Without strict, so does a set
// with a root whose Newton step is exactly zero: where a cluster of
// roots leaves the determinant within its rounding noise of zero over a
// span wider than the tolerance, the pencil factors exactly singular at
// points all over that span, and the residual check passes any of them
// for either finder.
func checkRoots(t *testing.T, tag string, c *mna.Circuit, strict bool) bool {
	t.Helper()
	ok, tol := true, rootAgreeTol
	if !strict {
		tol = fuzzAgreeTol
	}
	for _, which := range []string{"poles", "zeros"} {
		var got, want []complex128
		var gerr, werr error
		out := ""
		if which == "poles" {
			got, gerr = c.Poles(context.Background())
			want, werr = mna.AberthPoles(c)
		} else {
			out = "out"
			got, gerr = c.Zeros(context.Background(), out)
			want, werr = mna.AberthZeros(c, out)
		}
		for _, g := range got {
			if r := mna.RootResidual(c, out, g); r > 1e-6 {
				t.Fatalf("%s %s: root %v fails the residual check (%.3g)", tag, which, g, r)
			}
		}
		if werr != nil || !conjugateClosed(want) || !distinct(want) || slices.ContainsFunc(want, func(r complex128) bool {
			step := mna.RootResidual(c, out, r)
			return math.Abs(math.Log2(cmplx.Abs(r)/mna.MaxRootMag)) < 1 || step > 1e-6 || !strict && step == 0
		}) {
			ok = false
			continue
		}
		want = slices.DeleteFunc(want, func(r complex128) bool { return cmplx.Abs(r) >= mna.MaxRootMag })
		if gerr != nil {
			if !strict && errors.Is(gerr, mna.ErrNoConverge) {
				ok = false
				continue
			}
			t.Fatalf("%s %s: %v; oracle %v", tag, which, gerr, want)
		}
		if len(got) != len(want) || lhp(got) != lhp(want) {
			t.Fatalf("%s %s: %v (open LHP %v); oracle %v (open LHP %v)",
				tag, which, got, lhp(got), want, lhp(want))
		}
		used := make([]bool, len(got))
		for _, w := range want {
			best := -1
			for i, g := range got {
				if !used[i] && (best < 0 || cmplx.Abs(g-w) < cmplx.Abs(got[best]-w)) {
					best = i
				}
			}
			used[best] = true
			if d := cmplx.Abs(got[best]-w) / (cmplx.Abs(w) + 1); d > tol {
				t.Fatalf("%s %s: root %v, oracle %v (relative distance %.3g)", tag, which, got[best], w, d)
			}
		}
	}
	return ok
}

// conjugateClosed reports whether each root's conjugate is in the set,
// within rootAgreeTol.
func conjugateClosed(roots []complex128) bool {
	for _, r := range roots {
		if !slices.ContainsFunc(roots, func(q complex128) bool {
			return cmplx.Abs(q-cmplx.Conj(r)) <= rootAgreeTol*(cmplx.Abs(r)+1)
		}) {
			return false
		}
	}
	return true
}

// distinct reports whether no two roots lie within rootAgreeTol of
// each other.
func distinct(roots []complex128) bool {
	for i, r := range roots {
		for _, q := range roots[:i] {
			if cmplx.Abs(r-q) <= rootAgreeTol*(cmplx.Abs(r)+1) {
				return false
			}
		}
	}
	return true
}

// lhp reports whether every root lies in the open left half plane, the
// stability verdict measure.AnalyzeContext reads from the poles.
func lhp(roots []complex128) bool {
	for _, r := range roots {
		if real(r) >= 0 {
			return false
		}
	}
	return true
}

// TestRootsMatchAberth compares the eigenvalue root find with the Aberth
// oracle on the 1024 circuit_sim pool circuits
// (bench.NewTask(i, 1_000_003+7919·i)) and on 500 detuned designs, 100
// per Table-2 group: the group's knowledge-designed topology (NMCF for
// G-3, DFCFC for G-5, NMC otherwise) with every gm, C and R multiplied by
// a seeded log-normal factor, σ 0.8 clamped to ±1.5 in the exponent, as
// the size_recover benchmark starts its trials. The oracle converges on
// every one of them, and so must the eigenvalue find.
func TestRootsMatchAberth(t *testing.T) {
	if testing.Short() {
		t.Skip("1524 circuits through the Aberth oracle")
	}
	for i := 0; i < 1024; i++ {
		task, err := bench.NewTask(i, 1_000_003+7919*int64(i))
		if err != nil {
			t.Fatalf("pool %d: %v", i, err)
		}
		if !checkRoots(t, fmt.Sprintf("pool %d", i), compile(t, task.Netlist), true) {
			t.Errorf("pool %d: the oracle did not converge", i)
		}
	}
	for _, g := range spec.Groups() {
		arch := "NMC"
		switch g.Name {
		case "G-3":
			arch = "NMCF"
		case "G-5":
			arch = "DFCFC"
		}
		des, err := design.Design(arch, g, nil)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		env := topology.DefaultEnv()
		env.CL, env.RL = g.CL, g.RL
		for seed := int64(1); seed <= 100; seed++ {
			nl, err := detune(des.Topo, seed, 0.8).Elaborate(env)
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.Name, seed, err)
			}
			tag := fmt.Sprintf("%s detuned, seed %d", g.Name, seed)
			if !checkRoots(t, tag, compile(t, nl), true) {
				t.Errorf("%s: the oracle did not converge", tag)
			}
		}
	}
}

// FuzzPoles drives the root find over generated circuits: the seed picks
// a task as bench.NewTask does for the pool, and each input byte b scales
// one device by exp(int8(b)/32), a factor in [e^-4, e^4]. Wherever the
// Aberth oracle converges, Poles and Zeros must agree with it or fail
// with mna.ErrNoConverge, as checkRoots states; neither may panic.
func FuzzPoles(f *testing.F) {
	f.Add(int64(1_000_003), []byte{})
	f.Add(int64(1_000_003+7919*162), []byte{})
	f.Add(int64(1_000_003+7919*321), []byte{0x40, 0xc0, 0x20, 0xe0})
	f.Fuzz(func(t *testing.T, seed int64, factors []byte) {
		task, err := bench.NewTask(0, seed)
		if err != nil {
			return // unmeasurable at nominal values
		}
		nl := task.Netlist.Clone()
		for i := range nl.Devices {
			if i < len(factors) {
				nl.Devices[i].Value *= math.Exp(float64(int8(factors[i])) / 32)
			}
		}
		checkRoots(t, "scaled", compile(t, nl), false)
	})
}

func compile(t *testing.T, nl *netlist.Netlist) *mna.Circuit {
	t.Helper()
	c, err := mna.Compile(nl)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// detune multiplies every tunable value of t by a seeded log-normal
// jitter.
func detune(t *topology.Topology, seed int64, sigma float64) *topology.Topology {
	rng := rand.New(rand.NewSource(seed))
	jitter := func() float64 {
		return math.Exp(math.Max(-1.5, math.Min(1.5, rng.NormFloat64()*sigma)))
	}
	out := t.Clone()
	for i := range out.Stages {
		if out.Stages[i].Gm > 0 {
			out.Stages[i].Gm *= jitter()
		}
	}
	for i := range out.Conns {
		c := &out.Conns[i]
		if c.Type.HasGm() {
			c.Gm *= jitter()
		}
		if c.Type.HasC() {
			c.C *= jitter()
		}
		if c.Type.HasR() {
			c.R *= jitter()
		}
	}
	return out
}
