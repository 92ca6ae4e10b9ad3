package mna

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"strconv"

	"artisan/internal/telemetry"
)

// detFunc evaluates a determinant-valued analytic function of s (the MNA
// characteristic determinant or a Cramer numerator). Such functions are
// polynomials in s with real coefficients of modest degree, but are far
// better conditioned when evaluated through the LU determinant than through
// interpolated monomial coefficients, so the root finder works on direct
// evaluations.
type detFunc func(s complex128) ScaledDet

// ErrNoConverge reports that Aberth iteration either failed to settle
// within its iteration budget or settled on points that do not satisfy
// the residual check (spurious roots). Callers must treat the root set as
// unknown, not as empty.
var ErrNoConverge = errors.New("root finder did not converge")

const (
	// Radii (rad/s) used to probe the asymptotic slope of log|D|; chosen
	// beyond any physically plausible pole of a behavioral opamp
	// (parasitic poles top out near 1e13 rad/s).
	degreeProbeR1 = 1e16
	degreeProbeR2 = 1e17
	maxPolyDegree = 64

	aberthMaxIter = 400
	aberthTol     = 1e-10 // per-iteration relative step for early exit
	// Acceptance thresholds: a run that stopped on the iteration budget
	// still passes if its final step was below aberthLooseTol, and every
	// returned root must have a Newton step (≈ distance to the true
	// root) below aberthResidTol relative to its magnitude.
	aberthLooseTol  = 1e-6
	aberthResidTol  = 1e-6
	aberthDedupeTol = 1e-12 // merge numerically coincident duplicates
)

// polyDegree estimates deg D by the slope of log10|D| between two radii far
// outside the root cluster: for |s| ≫ all roots, |D(s)| ≈ |a_d|·|s|^d.
// Several probe angles are averaged for robustness. The degree follows
// the values, not just the topology — a capacitor scaled to zero lowers
// it — so each Poles or Zeros call probes its own circuit.
func polyDegree(f detFunc) (int, error) {
	angles := []float64{0.41, 1.73, 2.9}
	slope := 0.0
	used := 0
	for _, th := range angles {
		d1 := f(cmplx.Rect(degreeProbeR1, th))
		d2 := f(cmplx.Rect(degreeProbeR2, th))
		if d1.Zero() || d2.Zero() {
			continue
		}
		slope += d2.Log10Mag() - d1.Log10Mag()
		used++
	}
	if used == 0 {
		return 0, fmt.Errorf("mna: determinant vanishes at probe radii (identically zero?)")
	}
	d := int(math.Round(slope / float64(used)))
	if d < 0 {
		d = 0
	}
	if d > maxPolyDegree {
		return 0, fmt.Errorf("mna: implausible polynomial degree %d", d)
	}
	return d, nil
}

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
// (StableNear); the cold-start root finder keeps the central difference.
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

// aberth runs Aberth–Ehrlich simultaneous iteration for all deg roots of f.
// It fails with ErrNoConverge when the iteration does not settle or when a
// settled point fails the residual check — previously such spurious roots
// were silently reported as poles.
func aberth(f detFunc, deg int) ([]complex128, error) {
	if deg == 0 {
		return nil, nil
	}
	// Initial guesses: log-spaced radii over the plausible root range,
	// angles fanned across both half planes (poles live in the LHP but
	// zeros of opamp transfer functions are often in the RHP).
	roots := make([]complex128, deg)
	for i := range roots {
		t := float64(i) / float64(max(deg-1, 1))
		r := math.Pow(10, 2+10*t)       // 1e2 … 1e12 rad/s
		ang := math.Pi * (0.35 + 0.5*t) // fan from RHP-ish to LHP
		if i%2 == 1 {
			ang = -ang
		}
		roots[i] = cmplx.Rect(r, ang)
	}
	lastStep := math.Inf(1)
	for iter := 0; iter < aberthMaxIter; iter++ {
		maxStep := 0.0
		for i := range roots {
			ni := newtonRatio(f, roots[i])
			if ni == 0 {
				continue // already on a root (or derivative degenerate)
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
			w := ni / den
			roots[i] -= w
			rel := cmplx.Abs(w) / (cmplx.Abs(roots[i]) + 1e-3)
			if rel > maxStep {
				maxStep = rel
			}
		}
		lastStep = maxStep
		if maxStep < aberthTol {
			break
		}
	}
	if lastStep > aberthLooseTol {
		return nil, fmt.Errorf("mna: aberth: max relative step %.3g after %d iterations: %w",
			lastStep, aberthMaxIter, ErrNoConverge)
	}
	// Enforce conjugate symmetry: D has real coefficients, so roots with
	// tiny imaginary parts are real.
	for i, r := range roots {
		if math.Abs(imag(r)) < 1e-9*(math.Abs(real(r))+1) {
			roots[i] = complex(real(r), 0)
		}
	}
	sortRoots(roots)
	roots = dedupeRoots(roots)
	// Residual check: at a converged simple (or multiple) root the Newton
	// step |D/D'| is a direct estimate of the remaining distance to the
	// true root. A settled iterate with a large step is a spurious root
	// (typically from an overestimated degree).
	for _, r := range roots {
		ni := newtonRatio(f, r)
		if rel := cmplx.Abs(ni) / (cmplx.Abs(r) + 1); rel > aberthResidTol {
			return nil, fmt.Errorf("mna: aberth: root %v fails residual check (rel step %.3g): %w",
				r, rel, ErrNoConverge)
		}
	}
	return roots, nil
}

// dedupeRoots merges numerically coincident neighbours (relative distance
// below aberthDedupeTol) after sorting. Genuine multiple roots settle with
// far larger separations (Aberth converges only linearly on them), so only
// degenerate duplicates — e.g. two iterates collapsed through the
// zero-separation guard — are removed.
func dedupeRoots(rs []complex128) []complex128 {
	if len(rs) < 2 {
		return rs
	}
	out := rs[:1]
	for _, r := range rs[1:] {
		last := out[len(out)-1]
		if cmplx.Abs(r-last) <= aberthDedupeTol*(cmplx.Abs(last)+1) {
			continue
		}
		out = append(out, r)
	}
	return out
}

func sortRoots(rs []complex128) {
	sort.Slice(rs, func(i, j int) bool {
		ai, aj := cmplx.Abs(rs[i]), cmplx.Abs(rs[j])
		if ai != aj {
			return ai < aj
		}
		return imag(rs[i]) < imag(rs[j])
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
		if resid > aberthResidTol*(cmplx.Abs(r)+1) {
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
// det(G + sC) in rad/s, sorted by magnitude. The excitation sources are
// part of the system (a voltage source pins its node), matching what a
// simulator's pz analysis reports for the driven network. Every
// determinant is evaluated in the circuit's scratch, so a Poles call is a
// single small allocation burst. When ctx carries a tracer the call is
// recorded as an "mna.poles" span with the pole count.
func (c *Circuit) Poles(ctx context.Context) (poles []complex128, err error) {
	_, span := telemetry.StartSpan(ctx, "mna.poles")
	defer func() {
		span.SetAttr("n", strconv.Itoa(len(poles)))
		span.End()
	}()
	f := c.DetAt
	deg, err := polyDegree(f)
	if err != nil {
		return nil, err
	}
	return aberth(f, deg)
}

// Zeros returns the transmission zeros of V(out)/excitation in rad/s: the
// roots of the Cramer numerator determinant. When ctx carries a tracer
// the call is recorded as an "mna.zeros" span with the zero count.
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
	f := func(s complex128) ScaledDet { return c.numerDet(j, s) }
	deg, err := polyDegree(f)
	if err != nil {
		return nil, err
	}
	return aberth(f, deg)
}
