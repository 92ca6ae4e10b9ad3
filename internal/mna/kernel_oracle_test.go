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

// This file keeps the plain kernels — A(s) = G + sC by Matrix.AddScaled
// over every entry, the complex LU for every determinant, and one noise
// solve per source — as the oracles for the circuit's fast paths:
// capacitor-slot assembly, real-arithmetic determinants at real s, and
// one noise solve per node pair. The fast paths must return their bits.

// genCircuit builds a random behavioural opamp: a cascade of 2–4 gm
// stages, each with an output resistance and parasitic capacitance to
// ground, plus random Miller capacitors (some with a series resistor),
// feedforward resistors and transconductors, a VCVS buffer and a bias
// current source. Every device order is shuffled, so the noise sources
// that share a node pair interleave with the others, and some resistors
// are duplicated across the same node pair in the opposite orientation.
func genCircuit(rng *rand.Rand) *netlist.Netlist {
	logU := func(lo, hi float64) float64 { return lo * math.Exp(rng.Float64()*math.Log(hi/lo)) }
	type dev struct{ add func(nl *netlist.Netlist) }
	var devs []dev
	stages := 2 + rng.Intn(3)
	nodes := []string{"in"}
	for i := 1; i <= stages; i++ {
		node := fmt.Sprintf("n%d", i)
		if i == stages {
			node = "out"
		}
		prev, gm := nodes[len(nodes)-1], logU(1e-5, 1e-3)
		ro, cp := logU(1e4, 1e7), logU(1e-15, 1e-12)
		name := fmt.Sprint(i)
		if rng.Intn(2) == 0 {
			devs = append(devs, dev{func(nl *netlist.Netlist) { nl.AddG("Gm"+name, node, "0", prev, "0", gm) }})
		} else {
			devs = append(devs, dev{func(nl *netlist.Netlist) { nl.AddG("Gm"+name, "0", node, prev, "0", gm) }})
		}
		devs = append(devs,
			dev{func(nl *netlist.Netlist) { nl.AddR("Ro"+name, node, "0", ro) }},
			dev{func(nl *netlist.Netlist) { nl.AddC("Cp"+name, node, "0", cp) }})
		if rng.Intn(3) == 0 {
			devs = append(devs, dev{func(nl *netlist.Netlist) { nl.AddR("Rd"+name, "0", node, 3*ro) }})
		}
		nodes = append(nodes, node)
	}
	for k := 0; k < 1+rng.Intn(3); k++ {
		a := nodes[1+rng.Intn(len(nodes)-1)]
		b := nodes[1+rng.Intn(len(nodes)-1)]
		if a == b {
			continue
		}
		cm, name := logU(1e-13, 1e-11), fmt.Sprint(k)
		if rng.Intn(2) == 0 {
			devs = append(devs, dev{func(nl *netlist.Netlist) { nl.AddC("Cm"+name, a, b, cm) }})
			continue
		}
		mid, rz := "z"+name, logU(1e2, 1e5)
		devs = append(devs,
			dev{func(nl *netlist.Netlist) { nl.AddC("Cm"+name, a, mid, cm) }},
			dev{func(nl *netlist.Netlist) { nl.AddR("Rz"+name, mid, b, rz) }})
	}
	if rng.Intn(2) == 0 {
		a, gf := nodes[1+rng.Intn(len(nodes)-1)], logU(1e-6, 1e-4)
		devs = append(devs, dev{func(nl *netlist.Netlist) { nl.AddG("Gf", "out", "0", a, "0", gf) }})
	}
	if rng.Intn(2) == 0 {
		a, rf := nodes[rng.Intn(len(nodes)-1)], logU(1e5, 1e8)
		devs = append(devs, dev{func(nl *netlist.Netlist) { nl.AddR("Rf", a, "out", rf) }})
	}
	if rng.Intn(3) == 0 {
		devs = append(devs,
			dev{func(nl *netlist.Netlist) { nl.AddE("Eb", "buf", "0", "out", "0", 1) }},
			dev{func(nl *netlist.Netlist) { nl.AddR("Rb", "buf", "0", 1e4) }})
	}
	if rng.Intn(3) == 0 {
		devs = append(devs, dev{func(nl *netlist.Netlist) { nl.AddI("Ib", "n1", "0", 1e-6) }})
	}
	rng.Shuffle(len(devs), func(i, j int) { devs[i], devs[j] = devs[j], devs[i] })
	nl := netlist.New("generated")
	nl.AddV("Vin", "in", "0", 1)
	for _, d := range devs {
		d.add(nl)
	}
	return nl
}

// oracleCircuits returns generated circuits, each followed by restamped
// variants. The variants of one circuit share one restamp target, and
// some draws scale a capacitor to zero, so a slot list taken from one
// draw's values would be wrong for the next. The first circuit has a
// 10 F capacitor: at s = MaxFloat64 its A(s) overflows, which sends a
// real-s determinant back to the complex LU.
func oracleCircuits(t *testing.T, n int) []*Circuit {
	t.Helper()
	big := netlist.New("big capacitor")
	big.AddV("V1", "in", "0", 1)
	big.AddR("R1", "in", "out", 1e3)
	big.AddC("C1", "out", "0", 10)
	out := []*Circuit{compileOK(t, big)}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		nl := genCircuit(rng)
		base := compileOK(t, nl)
		out = append(out, base)
		var into *Circuit
		for draw := 0; draw < 3; draw++ {
			scale := make([]float64, len(nl.Devices))
			for k, d := range nl.Devices {
				scale[k] = math.Exp(0.3 * rng.NormFloat64())
				if d.Kind == netlist.Capacitor && draw == 0 && rng.Intn(2) == 0 {
					scale[k] = 0
				}
			}
			rc, err := base.Restamped(scale, into)
			if err != nil {
				t.Fatal(err)
			}
			into = rc
			// A snapshot: the shared target is overwritten by the next draw.
			snap, err := base.Restamped(scale, nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, snap)
		}
		// The target itself, last restamped with every capacitor nonzero.
		out = append(out, into)
	}
	return out
}

// oracleS are the evaluation points: real (zero, either sign, tiny and
// huge), imaginary, complex and non-finite.
func oracleS(c *Circuit) []complex128 {
	ss := []complex128{0, 1, -1, 1e-300, -2.5e3, 7e6, -3.3e8, 1e12, -1e16, math.MaxFloat64,
		Omega(1e-2), Omega(1e3), Omega(1e9), complex(-1e6, 2e6), complex(3e4, -1e5),
		complex(math.Inf(1), 0), complex(0, math.Inf(-1)), complex(math.NaN(), 0),
		complex(1e6, math.NaN()), cmplx.Inf()}
	// The real poles, where det A(s) nearly vanishes.
	if poles, err := c.Poles(context.Background()); err == nil {
		for _, p := range poles {
			if imag(p) == 0 {
				ss = append(ss, p, complex(real(p)*(1+1e-9), 0))
			}
		}
	}
	return ss
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestAssembleMatchesAddScaled: slot assembly writes AddScaled's A(s) bit
// for bit at every kind of s, on generated and restamped circuits.
func TestAssembleMatchesAddScaled(t *testing.T) {
	for ci, c := range oracleCircuits(t, 24) {
		want := NewMatrix(c.Size())
		for _, s := range oracleS(c) {
			c.assemble(s)
			want.AddScaled(c.G, c.C, s)
			for i := range want.data {
				if !sameBits(c.a.data[i], want.data[i]) {
					t.Fatalf("circuit %d s=%v entry %d: assembled %v, AddScaled %v",
						ci, s, i, c.a.data[i], want.data[i])
				}
			}
		}
	}
}

// TestRealDetMatchesComplexLU: at real s, DetAt and numerDet equal the
// complex LU determinant of an AddScaled matrix: the mantissa's real part
// and the exponent bit for bit, the imaginary part up to the sign of zero.
// Elsewhere (the complex and non-finite points) they are bit-identical.
func TestRealDetMatchesComplexLU(t *testing.T) {
	check := func(what string, s complex128, got, want ScaledDet) {
		t.Helper()
		same := got.Exp == want.Exp && sameBits(got.Mant, want.Mant)
		if imag(s) == 0 && !cmplx.IsNaN(want.Mant) {
			same = got.Exp == want.Exp &&
				math.Float64bits(real(got.Mant)) == math.Float64bits(real(want.Mant)) &&
				imag(got.Mant) == imag(want.Mant)
		}
		if !same {
			t.Fatalf("%s at s=%v: got %v·2^%d, want %v·2^%d", what, s, got.Mant, got.Exp, want.Mant, want.Exp)
		}
	}
	nReal := 0
	for ci, c := range oracleCircuits(t, 24) {
		j, err := c.NodeIndex("out")
		if err != nil {
			t.Fatal(err)
		}
		a := NewMatrix(c.Size())
		for _, s := range oracleS(c) {
			if imag(s) == 0 {
				nReal++
			}
			a.AddScaled(c.G, c.C, s)
			check(fmt.Sprintf("circuit %d DetAt", ci), s, c.DetAt(s), Factor(a).Det())
			for i := 0; i < a.N; i++ {
				a.Set(i, j, c.b[i])
			}
			check(fmt.Sprintf("circuit %d numerDet", ci), s, c.numerDet(j, s), Factor(a).Det())
		}
	}
	if nReal == 0 {
		t.Fatal("no real evaluation point")
	}
}

// noisePerSource is the plain noise analysis: a fresh AddScaled
// assembly and complex LU per frequency, and one solve per source.
func noisePerSource(c *Circuit, out string, fStart, fStop float64, perDecade int) ([]NoisePoint, error) {
	j, err := c.NodeIndex(out)
	if err != nil {
		return nil, err
	}
	sources := c.noiseSources(NoiseOpts{TempK: 300, Gamma: 2.0 / 3.0})
	n := c.Size()
	a := NewMatrix(n)
	rhs, x := make([]complex128, n), make([]complex128, n)
	var pts []NoisePoint
	for _, f := range logFreqs(fStart, fStop, perDecade) {
		a.AddScaled(c.G, c.C, Omega(f))
		lu := Factor(a)
		total := 0.0
		for _, s := range sources {
			for i := range rhs {
				rhs[i] = 0
			}
			if s.a >= 0 {
				rhs[s.a] -= 1
			}
			if s.b >= 0 {
				rhs[s.b] += 1
			}
			if err := lu.SolveInto(x, rhs); err != nil {
				return nil, err
			}
			h := cmplx.Abs(x[j])
			total += h * h * s.si
		}
		pts = append(pts, NoisePoint{Freq: f, Svv: total})
	}
	return pts, nil
}

// TestNoiseSweepMatchesPerSource: one solve per node pair gives the
// per-source analysis's bits at every frequency.
func TestNoiseSweepMatchesPerSource(t *testing.T) {
	shared := 0
	for ci, c := range oracleCircuits(t, 24) {
		srcs := c.noiseSources(NoiseOpts{})
		for k := range srcs {
			for _, p := range srcs[:k] {
				if samePair(p, srcs[k]) {
					shared++
					break
				}
			}
		}
		got, err := c.NoiseSweep("out", 1, 1e9, 10, NoiseOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := noisePerSource(c, "out", 1, 1e9, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("circuit %d: %d points, want %d", ci, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i].Svv) != math.Float64bits(want[i].Svv) || got[i].Freq != want[i].Freq {
				t.Fatalf("circuit %d at %g Hz: Svv %v, per-source %v", ci, want[i].Freq, got[i].Svv, want[i].Svv)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no generated circuit has two sources on one node pair")
	}
}

// pivotReciprocal is the reciprocal LU.factor stores for a 1×1 matrix
// holding z: its written-out division of 1 by the pivot.
func pivotReciprocal(z complex128) complex128 {
	a := NewMatrix(1)
	a.Set(0, 0, z)
	var lu LU
	lu.FactorInto(a)
	return lu.idiag[0]
}

// TestPivotReciprocalMatchesDivision compares LU.factor's reciprocal with
// the runtime's 1/z on every pair of parts from {±0, ±the least
// denormal, ±1, ±MaxFloat64, ±Inf, NaN} and on random bit patterns. A
// zero pivot is flagged singular before any reciprocal is taken.
func TestPivotReciprocalMatchesDivision(t *testing.T) {
	var special []float64
	for _, v := range []float64{0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1)} {
		special = append(special, v, -v)
	}
	special = append(special, math.NaN())
	check := func(z complex128) {
		if z == 0 {
			return
		}
		if got, want := pivotReciprocal(z), 1/z; !sameBits(got, want) {
			t.Fatalf("1/(%v) [%016x %016x]: factor %v, runtime %v", z,
				math.Float64bits(real(z)), math.Float64bits(imag(z)), got, want)
		}
	}
	for _, re := range special {
		for _, im := range special {
			check(complex(re, im))
		}
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 1_000_000; i++ {
		re, im := math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())
		if i%2 == 1 { // parts of similar size, where the branches meet
			im = re * (0.5 + rng.Float64())
		}
		check(complex(re, im))
	}
}
