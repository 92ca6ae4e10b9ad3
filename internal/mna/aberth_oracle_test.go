package mna

import (
	"fmt"
	"math"
	"math/cmplx"
)

// This file keeps the Aberth–Ehrlich root finder that Poles and Zeros
// ran before the eigenvalue solve, as its oracle: polyDegree estimates
// the determinant's degree from its growth at two radii far beyond any
// root, and aberth iterates that many approximants from cold starts to
// the roots, then applies the residual check.

const (
	// Radii (rad/s) used to probe the asymptotic slope of log|D|; chosen
	// beyond any physically plausible pole of a behavioral opamp
	// (parasitic poles top out near 1e13 rad/s).
	degreeProbeR1 = 1e16
	degreeProbeR2 = 1e17
	maxPolyDegree = 64

	aberthMaxIter = 400
	// A run that stopped on the iteration budget still passes if its
	// final step was below aberthLooseTol.
	aberthLooseTol  = 1e-6
	aberthDedupeTol = 1e-12 // merge numerically coincident duplicates
)

// aberthPoles and aberthZeros are Poles and Zeros as the oracle finds
// them.
func aberthPoles(c *Circuit) ([]complex128, error) { return aberthRoots(c.DetAt) }

func aberthZeros(c *Circuit, out string) ([]complex128, error) {
	j, err := c.NodeIndex(out)
	if err != nil {
		return nil, err
	}
	return aberthRoots(func(s complex128) ScaledDet { return c.numerDet(j, s) })
}

// numerDet returns the Cramer numerator determinant for the output at
// matrix index j (A(s) with column j replaced by the excitation b),
// allocation-free.
func (c *Circuit) numerDet(j int, s complex128) ScaledDet {
	if c.assembleReal(s, j) {
		if d, ok := c.realDet(); ok {
			return d
		}
	}
	c.assemble(s)
	for i := 0; i < c.a.N; i++ {
		c.a.Set(i, j, c.b[i])
	}
	c.lu.FactorInto(c.a)
	return c.lu.Det()
}

func aberthRoots(f detFunc) ([]complex128, error) {
	deg, err := polyDegree(f)
	if err != nil {
		return nil, err
	}
	return aberth(f, deg)
}

// polyDegree estimates deg D by the slope of log10|D| between two radii far
// outside the root cluster: for |s| ≫ all roots, |D(s)| ≈ |a_d|·|s|^d.
// Several probe angles are averaged for robustness.
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

// aberth runs Aberth–Ehrlich simultaneous iteration for all deg roots of f.
// It fails with ErrNoConverge when the iteration does not settle or when a
// settled point fails the residual check.
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
		if rel := cmplx.Abs(ni) / (cmplx.Abs(r) + 1); rel > rootResidTol {
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
