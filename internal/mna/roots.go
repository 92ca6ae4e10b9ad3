package mna

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"strconv"

	"artisan/internal/telemetry"
)

// detFunc evaluates a determinant-valued analytic function of s (the MNA
// characteristic determinant or a Cramer numerator), a polynomial in s
// with real coefficients of modest degree, through the LU determinant.
type detFunc func(s complex128) ScaledDet

// ErrNoConverge reports that a root find did not settle: the eigenvalue
// iteration ran out of its iteration budget, or a root still failed the
// residual check after its Newton polish. Callers must treat the root
// set as unknown, not as empty.
var ErrNoConverge = errors.New("root finder did not converge")

const (
	// aberthTol is StableNear's per-iteration relative step for early
	// exit.
	aberthTol = 1e-10
	// rootResidTol bounds every returned root's Newton step |D/D'|, a
	// direct estimate of its distance to the true root, relative to
	// |r|+1; StableNear holds its polished roots to it too.
	rootResidTol = 1e-6
	// polishSweeps bounds the Newton sweeps over roots that fail the
	// residual check before the find fails.
	polishSweeps = 8
	// qrResolution is the QR iteration's resolution relative to the
	// balanced matrix norm: the rounding unit with a margin of 100.
	qrResolution = 100 * 0x1p-52
	// maxRootMag (rad/s) drops eigenvalues that map beyond any physically
	// plausible root of a behavioural opamp (parasitic poles top out near
	// 1e13 rad/s): an eigenvalue that is zero in exact arithmetic comes
	// out of the QR iteration at rounding level and maps far above it.
	maxRootMag = 1e15
)

// newtonRatio computes D(s)/D'(s) with a central-difference derivative.
func newtonRatio(f detFunc, s complex128) complex128 {
	h := 1e-6 * (cmplx.Abs(s) + 1)
	d := f(s)
	if d.Zero() {
		return 0
	}
	dp := f(s + complex(h, 0))
	dm := f(s - complex(h, 0))
	// D'(s) ≈ (D+ − D−)/(2h). Work in a common scale: express both
	// relative to d's exponent to avoid overflow.
	rp := dp.Ratio(d)                    // D+/D
	rm := dm.Ratio(d)                    // D−/D
	deriv := (rp - rm) / complex(2*h, 0) // D'/D
	if deriv == 0 || cmplx.IsInf(deriv) || cmplx.IsNaN(deriv) {
		return 0
	}
	return 1 / deriv // D/D'
}

// newtonRatioFwd is newtonRatio with a one-sided derivative — one fewer
// determinant evaluation per call. The O(h) derivative error is ample for
// polishing warm seeds whose verdict is certified by a 20× sign margin
// (StableNear); its final residual check keeps the central difference.
func newtonRatioFwd(f detFunc, s complex128) complex128 {
	h := 1e-7 * (cmplx.Abs(s) + 1)
	d := f(s)
	if d.Zero() {
		return 0
	}
	dp := f(s + complex(h, 0))
	rp := dp.Ratio(d)                 // D+/D
	deriv := (rp - 1) / complex(h, 0) // D'/D
	if deriv == 0 || cmplx.IsInf(deriv) || cmplx.IsNaN(deriv) {
		return 0
	}
	return 1 / deriv
}

// sortRoots orders roots by magnitude, then by imaginary part.
func sortRoots(rs []complex128) {
	slices.SortFunc(rs, func(a, b complex128) int {
		if c := cmp.Compare(cmplx.Abs(a), cmplx.Abs(b)); c != 0 {
			return c
		}
		return cmp.Compare(imag(a), imag(b))
	})
}

// StableNear classifies the circuit's stability by polishing a set of
// warm-start pole seeds (typically the nominal design's poles) with
// Aberth iteration on this circuit's determinant. It is the fast path for
// Monte-Carlo stability checks: a perturbed sample's poles sit close to
// the nominal ones, so a few polish iterations settle where a cold-start
// root find needs hundreds.
//
// It returns ok=false — caller must fall back to a full root find — when
// the polish does not settle, a root fails the residual check, or any
// root's real-part sign is ambiguous at the polished accuracy. When
// ok=true, stable reports whether every pole is in the closed left half
// plane (Re ≤ 0 up to the residual scale), matching Analyze's convention.
func (c *Circuit) StableNear(seeds []complex128) (stable, ok bool) {
	if len(seeds) == 0 {
		return false, false
	}
	f := c.DetAt
	roots := append(make([]complex128, 0, len(seeds)), seeds...)
	steps := make([]float64, len(roots))
	const polishMaxIter = 24
	settled := false
	for iter := 0; iter < polishMaxIter; iter++ {
		maxStep := 0.0
		for i := range roots {
			steps[i] = 0
			ni := newtonRatioFwd(f, roots[i])
			if ni == 0 {
				continue
			}
			sum := complex(0, 0)
			for j := range roots {
				if j != i {
					d := roots[i] - roots[j]
					if d == 0 {
						d = complex(1e-30, 1e-30)
					}
					sum += 1 / d
				}
			}
			den := 1 - ni*sum
			if den == 0 {
				continue
			}
			wstep := ni / den
			roots[i] -= wstep
			steps[i] = cmplx.Abs(wstep)
			if rel := steps[i] / (cmplx.Abs(roots[i]) + 1e-3); rel > maxStep {
				maxStep = rel
			}
		}
		if maxStep < aberthTol {
			settled = true
			break
		}
		// Sign-certainty early exit: near a simple root the Newton step
		// bounds the remaining error, so once every root's last step is far
		// smaller than the distance to the imaginary axis, further polish
		// cannot change any real-part sign. Require at least two sweeps and
		// an overall contracting iteration before trusting the bound.
		if iter >= 1 && maxStep < 1e-3 {
			certain := true
			stable = true
			for i, r := range roots {
				if math.Abs(real(r)) <= 20*steps[i] {
					certain = false
					break
				}
				if real(r) > 0 {
					stable = false
				}
			}
			if certain {
				return stable, true
			}
		}
	}
	if !settled {
		return false, false
	}
	stable = true
	for _, r := range roots {
		resid := cmplx.Abs(newtonRatio(f, r))
		if resid > rootResidTol*(cmplx.Abs(r)+1) {
			return false, false
		}
		// Sign certainty: the remaining root error is on the order of the
		// Newton step; a real part inside that band could be either sign,
		// so hand the sample to the full (slow) analysis instead of
		// guessing.
		margin := 10 * resid
		if math.Abs(real(r)) <= margin {
			return false, false
		}
		if real(r) > 0 {
			stable = false
		}
	}
	return stable, true
}

// Poles returns the natural frequencies of the circuit: the roots of
// det(G + sC) in rad/s below maxRootMag, sorted by magnitude. The
// excitation sources are part of the system (a voltage source pins its
// node), matching what a simulator's pz analysis reports for the driven
// network. The roots come from one small eigenvalue solve (see roots)
// in the circuit's scratch, so a call allocates only its result. When
// ctx carries a tracer the call is recorded as an "mna.poles" span with
// the pole count.
func (c *Circuit) Poles(ctx context.Context) (poles []complex128, err error) {
	_, span := telemetry.StartSpan(ctx, "mna.poles")
	defer func() {
		span.SetAttr("n", strconv.Itoa(len(poles)))
		span.End()
	}()
	return c.roots(-1)
}

// Zeros returns the transmission zeros of V(out)/excitation in rad/s: the
// roots of the Cramer numerator determinant, found as Poles finds the
// poles. When ctx carries a tracer the call is recorded as an
// "mna.zeros" span with the zero count.
func (c *Circuit) Zeros(ctx context.Context, out string) (zeros []complex128, err error) {
	_, span := telemetry.StartSpan(ctx, "mna.zeros")
	defer func() {
		span.SetAttr("n", strconv.Itoa(len(zeros)))
		span.End()
	}()
	j, err := c.NodeIndex(out)
	if err != nil {
		return nil, err
	}
	return c.roots(j)
}

// rootScratch is the scratch of the eigenvalue root find, made by the
// first Poles or Zeros call on a circuit in two allocations.
type rootScratch struct {
	piv    []int     // pivot rows of the real LU of the pencil
	x      []float64 // one column of C, solved in place
	cols   []int     // the columns of C' that hold a nonzero value
	m      []float64 // the deflated eigenproblem; the QR iteration destroys it
	wr, wi []float64 // its eigenvalues
	rsc    []float64 // the row scales of the factored pencil (see equilibrate)
	csc    []float64 // its column scales
}

// roots returns the finite roots of det(G' + sC') below maxRootMag,
// sorted by magnitude. For j < 0 the pencil is (G, C); otherwise it is
// the Cramer numerator's for the output at matrix index j: column j of G
// replaced by b, and column j of C by 0.
//
// The roots are the finite generalized eigenvalues of (G', −C'). At a
// real shift s0 where A0 = G' + s0·C' is nonsingular,
// det(G' + sC') = det A0 · det(I + (s − s0)·A0⁻¹C'), so each nonzero
// eigenvalue μ of M = A0⁻¹C' gives the root s0 − 1/μ. M is zero outside
// the columns where C' holds a value, so its other eigenvalues are
// exactly zero and deflate: only the rows and columns of those columns
// enter the eigen solve. The shift is 0 first; when G' is singular (a
// node reached only through capacitors) it is −w, where w, the ratio of
// conductance to capacitance on the capacitor slots, lies inside the
// circuit's own pole range. A pencil singular at every shift
// (det(G' + sC') ≡ 0) is ErrSingular.
//
// The QR iteration resolves eigenvalues down to about qrResolution·‖M‖
// (‖M‖ balanced), so a root farther than 1/(qrResolution·‖M‖) from the
// shift would be lost among the zero eigenvalues, and one nearly that
// far comes out with a large relative error. When that horizon falls
// short of maxRootMag (the nearest root, at distance 1/ρ(M) ≥ 1/‖M‖, is
// very close to the shift), the shift moves away from it by the
// geometric mean of 1/‖M‖ and maxRootMag, which halves the span in
// decades on either side.
//
// Every factorization is equilibrated first (see equilibrate). Every
// returned root passes the residual check (see polish). When the pencil
// is singular at s = 0, that point is an exact root, and a root that
// polishes to within rootResidTol of it is reported as 0.
func (c *Circuit) roots(j int) ([]complex128, error) {
	cols, w := c.rootColumns(j)
	var s0, norm float64
	singularAtZero, factored := false, false
	for _, s0 = range [...]float64{0, -w} {
		if norm, factored = c.shiftedEigenproblem(j, s0, cols); factored {
			break
		}
		if s0 == 0 {
			singularAtZero = c.singularPivot()
		}
	}
	if !factored {
		return nil, singularf("mna: root pencil singular at s = 0 and s = %.3g rad/s", -w)
	}
	if norm*maxRootMag*qrResolution > 1 {
		s1 := s0 - math.Sqrt(maxRootMag/norm)
		if _, ok := c.shiftedEigenproblem(j, s1, cols); ok {
			s0 = s1
		} else {
			c.shiftedEigenproblem(j, s0, cols)
		}
	}
	out, err := c.eigenRoots(s0, len(cols))
	if err == nil {
		out, err = polish(func(s complex128) complex128 { return c.newtonStep(j, cols, s) }, out)
	}
	if err != nil {
		return nil, err
	}
	if singularAtZero {
		for i, r := range out {
			if cmplx.Abs(r) <= rootResidTol {
				out[i] = 0
			}
		}
	}
	sortRoots(out)
	return out, nil
}

// rootColumns lists, sorted, the columns of roots' C' that hold a
// nonzero value, in the root scratch (made here on first use), and
// returns w, the ratio of the magnitudes of G and C summed over the
// capacitor slots of those columns, or 1 when that is not a positive
// number.
func (c *Circuit) rootColumns(j int) (cols []int, w float64) {
	n, rs := c.Size(), &c.rs
	if rs.piv == nil {
		ints := make([]int, n+len(c.capSlots))
		rs.piv, rs.cols = ints[:n], ints[n:n]
		f := make([]float64, n*n+5*n)
		rs.m, f = f[:n*n], f[n*n:]
		rs.x, rs.wr, rs.wi, rs.rsc, rs.csc = f[:n], f[n:2*n], f[2*n:3*n], f[3*n:4*n], f[4*n:]
	}
	cols = rs.cols
	var gsum, csum float64
	for _, i := range c.capSlots {
		if v := real(c.C.data[i]); v != 0 && i%n != j {
			cols = append(cols, i%n)
			gsum += math.Abs(real(c.G.data[i]))
			csum += math.Abs(v)
		}
	}
	slices.Sort(cols)
	if w = gsum / csum; !(w > 0 && finite(w)) {
		w = 1
	}
	return slices.Compact(cols), w
}

// shiftedEigenproblem factors A0 = G' + s0·C' (roots' pencil),
// equilibrated, in the real scratch and, when it is nonsingular, writes
// M = A0⁻¹C' on the rows and columns cols into the root scratch, in the
// column scaling's similarity transform, and balances it. It reports
// whether M was formed with every entry finite, and the sum of the
// balanced entries' magnitudes, a bound on M's spectral radius.
func (c *Circuit) shiftedEigenproblem(j int, s0 float64, cols []int) (norm float64, ok bool) {
	n, rs := c.Size(), &c.rs
	if !c.factorPencilReal(complex(s0, 0), j) {
		return 0, false
	}
	k := len(cols)
	m := rs.m[:k*k]
	for ci, col := range cols {
		c.scaledColumnReal(col)
		solveReal(c.re, n, rs.piv, rs.x)
		for ri, row := range cols {
			v := rs.x[row]
			if !finite(v) {
				return 0, false
			}
			m[ri*k+ci] = v
		}
	}
	balance(m, k)
	for _, v := range m {
		norm += math.Abs(v)
	}
	return norm, true
}

// factorPencilReal assembles roots' pencil A(s) = G' + sC' at a real,
// finite s into the real scratch, equilibrates it and factors it. It
// reports whether the factorization is nonsingular.
func (c *Circuit) factorPencilReal(s complex128, j int) bool {
	n, rs := c.Size(), &c.rs
	if !c.assembleReal(s, j) {
		return false
	}
	a := c.re
	equilibrate(n, func(i, j int) float64 { return math.Abs(a[i*n+j]) }, rs.rsc, rs.csc)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] *= rs.rsc[i] * rs.csc[j]
		}
	}
	factorReal(a, n, rs.piv)
	return !c.singularPivot()
}

// scaledColumnReal writes column k of C, scaled as factorPencilReal
// scaled the pencil, into the root scratch's vector.
func (c *Circuit) scaledColumnReal(k int) {
	n, rs := c.Size(), &c.rs
	for r := range rs.x {
		rs.x[r] = real(c.C.data[r*n+k]) * rs.rsc[r] * rs.csc[k]
	}
}

// equilibrate sets power-of-two row scales r and column scales s that
// bring the largest entry magnitude of every row, then of every column,
// of the n×n matrix with magnitudes mag into [1/2, 1); an all-zero row or
// column keeps the scale 1. Scaling A to RAS and C to RCS leaves
// tr(A⁻¹C) unchanged and turns A⁻¹C into the similar S⁻¹A⁻¹CS, so
// neither a Newton step nor an eigenvalue moves, while the elimination,
// whose backward error is relative to the largest entries, stops losing
// the small conductances of a row to its large ones. Powers of two make
// the scaling itself exact.
func equilibrate(n int, mag func(i, j int) float64, r, s []float64) {
	for i := 0; i < n; i++ {
		m := 0.0
		for j := 0; j < n; j++ {
			m = max(m, mag(i, j))
		}
		r[i] = invPow2(m)
	}
	for j := 0; j < n; j++ {
		m := 0.0
		for i := 0; i < n; i++ {
			m = max(m, r[i]*mag(i, j))
		}
		s[j] = invPow2(m)
	}
}

// invPow2 returns the power of two 2^-e with m·2^-e in [1/2, 1), or 1
// when m is zero or not finite.
func invPow2(m float64) float64 {
	if m == 0 || !finite(m) {
		return 1
	}
	_, e := math.Frexp(m)
	return math.Ldexp(1, -e)
}

// singularPivot reports whether the real LU in the scratch has a zero
// pivot.
func (c *Circuit) singularPivot() bool {
	n := c.Size()
	for k := 0; k < n; k++ {
		if c.re[k*n+k] == 0 {
			return true
		}
	}
	return false
}

// eigenRoots solves the eigenproblem shiftedEigenproblem formed at s0
// (k×k) and maps its eigenvalues to roots below maxRootMag, unpolished.
// A conjugate pair fills two adjacent slots, the root with positive
// imaginary part first.
func (c *Circuit) eigenRoots(s0 float64, k int) ([]complex128, error) {
	rs := &c.rs
	if err := eigvals(rs.m[:k*k], k, rs.wr[:k], rs.wi[:k]); err != nil {
		return nil, err
	}
	var out []complex128
	for i := 0; i < k; i++ {
		mu := complex(rs.wr[i], math.Abs(rs.wi[i]))
		pair := rs.wi[i] != 0
		if pair {
			i++
		}
		if mu == 0 {
			continue
		}
		r := complex(s0, 0) - 1/mu
		if !(cmplx.Abs(r) < maxRootMag) {
			continue
		}
		if out == nil {
			out = make([]complex128, 0, k)
		}
		out = append(out, r)
		if pair {
			out = append(out, cmplx.Conj(r))
		}
	}
	return out, nil
}

// newtonStep returns the Newton step D(s)/D'(s) on the determinant of
// roots' pencil, whose C' has values in the columns cols, by Jacobi's
// formula D'/D = tr(A(s)⁻¹C'): one factorization of A(s) = G' + sC', in
// real arithmetic at real s, and one solve per column. Near a root the
// determinant sinks into its own rounding noise, so a finite difference
// of determinants cannot resolve D' there, while the trace, dominated by
// 1/(s − r), keeps its relative accuracy. It returns 0 where A(s) is
// exactly singular or the trace overflows: s is then a root to working
// precision.
func (c *Circuit) newtonStep(j int, cols []int, s complex128) complex128 {
	n, rs := c.Size(), &c.rs
	var tr complex128
	if imag(s) == 0 {
		if !c.factorPencilReal(s, j) {
			return 0
		}
		for _, k := range cols {
			c.scaledColumnReal(k)
			solveReal(c.re, n, rs.piv, rs.x)
			tr += complex(rs.x[k], 0)
		}
	} else {
		c.assemble(s)
		a := c.a.data
		if j >= 0 {
			for i := 0; i < n; i++ {
				a[i*n+j] = c.b[i]
			}
		}
		equilibrate(n, func(i, j int) float64 { return abs1(a[i*n+j]) }, rs.rsc, rs.csc)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i*n+j] *= complex(rs.rsc[i]*rs.csc[j], 0)
			}
		}
		c.lu.FactorInto(c.a)
		x := c.x
		for _, k := range cols {
			for r := range x {
				x[r] = c.C.data[r*n+k] * complex(rs.rsc[r]*rs.csc[k], 0)
			}
			if c.lu.SolveInto(x, x) != nil {
				return 0
			}
			tr += x[k]
		}
	}
	if cmplx.IsInf(tr) || cmplx.IsNaN(tr) {
		return 0
	}
	return 1 / tr
}

// polish sweeps over roots until each passes the residual check, its
// Newton step at most rootResidTol·(|r|+1), and fails with
// ErrNoConverge when a root still fails after polishSweeps sweeps. In a
// sweep every failing root takes one Newton step with the other roots
// deflated, as Aberth's iteration does: the step is divided by
// 1 − step·Σ 1/(r − r_j), so the pull of the roots the eigenvalue solve
// found well does not slow or misdirect the ones it found poorly. A
// candidate that is no root at all, an eigenvalue at infinity perturbed
// into range (a defective one moves by the square root of the rounding
// unit or more), has no root left to converge to once the others are
// deflated: its step throws it beyond maxRootMag, and it is dropped. A
// step that does not at least halve the root's previous one is halved:
// near the rounding floor the computed steps can flip between two points
// on either side of the root. A root that is the exact conjugate of the
// one before it, which passed, passes too: the determinant has real
// coefficients. It returns the roots kept.
func polish(step func(complex128) complex128, roots []complex128) ([]complex128, error) {
	var last []complex128 // each root's previous step, made by the first step
	for sweep := 0; ; sweep++ {
		settled, prevOK := true, false
		for i := 0; i < len(roots); i++ {
			r := roots[i]
			if prevOK && r == cmplx.Conj(roots[i-1]) {
				prevOK = false
				continue
			}
			d := step(r)
			rel := cmplx.Abs(d) / (cmplx.Abs(r) + 1)
			if prevOK = rel <= rootResidTol; prevOK {
				continue
			}
			if sweep == polishSweeps {
				return nil, fmt.Errorf("mna: root %v fails residual check after %d polish sweeps (rel step %.3g): %w",
					r, polishSweeps, rel, ErrNoConverge)
			}
			settled = false
			var sum complex128
			for j, rj := range roots {
				if j != i && rj != r {
					sum += 1 / (r - rj)
				}
			}
			if den := 1 - d*sum; den != 0 {
				d /= den
			}
			if last == nil {
				last = make([]complex128, len(roots))
			}
			if cmplx.Abs(d) > cmplx.Abs(last[i])/2 && last[i] != 0 {
				d /= 2
			}
			if r -= d; cmplx.Abs(r) < maxRootMag {
				roots[i], last[i] = r, d
			} else {
				roots = slices.Delete(roots, i, i+1)
				last = slices.Delete(last, i, i+1)
				i--
			}
		}
		if settled {
			return roots, nil
		}
	}
}
