// Package mna implements small-signal AC analysis of linear circuits by
// Modified Nodal Analysis over complex arithmetic. It is the in-repo
// replacement for the Cadence Spectre AC analyses the paper relies on
// (§4.1.3): it stamps R, C, VCCS, VCVS, V and I elements into
// A(s) = G + sC, solves A(jω)x = b across a frequency sweep, and extracts
// poles and zeros, the roots of det A(s) and of the Cramer numerator, as
// the finite eigenvalues of a small shifted-and-inverted real
// eigenproblem, each checked by a Newton step on the determinant.
package mna

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a dense complex matrix.
type Matrix struct {
	N    int
	data []complex128
}

// NewMatrix returns an N×N zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, data: make([]complex128, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.data[i*m.N+j] = v }

// Add accumulates into element (i, j).
func (m *Matrix) Add(i, j int, v complex128) { m.data[i*m.N+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	copy(c.data, m.data)
	return c
}

// AddScaled sets m = a + s·b elementwise (a, b, m must have equal size).
func (m *Matrix) AddScaled(a, b *Matrix, s complex128) {
	for i := range m.data {
		m.data[i] = a.data[i] + s*b.data[i]
	}
}

// ScaledDet is a complex determinant held as mant·2^exp with |mant| kept
// near 1, so products of many pivots can neither overflow nor underflow.
type ScaledDet struct {
	Mant complex128
	Exp  int
}

// Zero reports whether the determinant is exactly zero.
func (d ScaledDet) Zero() bool { return d.Mant == 0 }

// Ratio returns d/e as a plain complex128 (used for Newton steps where the
// exponents nearly cancel).
func (d ScaledDet) Ratio(e ScaledDet) complex128 {
	if e.Zero() {
		return cmplx.Inf()
	}
	r := d.Mant / e.Mant
	// Scaling by 2^k is exact; Ldexp avoids a Pow call on the hot path.
	k := d.Exp - e.Exp
	return complex(math.Ldexp(real(r), k), math.Ldexp(imag(r), k))
}

// Log10Mag returns log10|d|.
func (d ScaledDet) Log10Mag() float64 {
	if d.Zero() {
		return math.Inf(-1)
	}
	return math.Log10(cmplx.Abs(d.Mant)) + float64(d.Exp)*math.Log10(2)
}

func normalizeDet(m complex128, e int) (complex128, int) {
	// The max-norm is enough to pick a scaling exponent (any norm keeps
	// |mant| within a factor of 2 of 1), and Ldexp scaling by 2^-ex is
	// exact — no hypot, no Pow.
	a := math.Abs(real(m))
	if b := math.Abs(imag(m)); b > a {
		a = b
	}
	if a == 0 {
		return 0, 0
	}
	_, ex := math.Frexp(a)
	return complex(math.Ldexp(real(m), -ex), math.Ldexp(imag(m), -ex)), e + ex
}

// abs1 is the 1-norm |re|+|im|, a cheap stand-in for cmplx.Abs wherever
// only relative magnitude ordering matters.
func abs1(z complex128) float64 {
	return math.Abs(real(z)) + math.Abs(imag(z))
}

// LU holds an in-place LU factorization with partial pivoting. A zero LU
// is ready for FactorInto; its pivot buffer is reused across refactors.
type LU struct {
	m     *Matrix
	pivot []int
	idiag []complex128 // reciprocal U diagonal, filled during factor()
	sign  int
	ok    bool
}

// Factor computes the LU factorization of a copy of a. Singular (to working
// precision) matrices are flagged; Solve will then fail but Det returns a
// (possibly zero) determinant.
func Factor(a *Matrix) *LU {
	lu := &LU{}
	lu.FactorInto(a.Clone())
	return lu
}

// FactorInto factors a in place: a's storage is overwritten with the L and
// U factors and the LU borrows it (no copy). The pivot buffer is reused
// when it is large enough, so repeated FactorInto calls on same-sized
// matrices allocate nothing.
func (lu *LU) FactorInto(a *Matrix) {
	if cap(lu.pivot) < a.N {
		lu.pivot = make([]int, a.N)
	}
	if cap(lu.idiag) < a.N {
		lu.idiag = make([]complex128, a.N)
	}
	lu.pivot = lu.pivot[:a.N]
	lu.idiag = lu.idiag[:a.N]
	lu.m, lu.sign, lu.ok = a, 1, true
	lu.factor()
}

func (lu *LU) factor() {
	n := lu.m.N
	d := lu.m.data
	for k := 0; k < n; k++ {
		// Partial pivot on the 1-norm |re|+|im|: any norm is valid for
		// pivot selection and it avoids hypot in the innermost search.
		p, best := k, abs1(d[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := abs1(d[i*n+k]); v > best {
				p, best = i, v
			}
		}
		lu.pivot[k] = p
		if p != k {
			rk, rp := d[k*n:k*n+n], d[p*n:p*n+n]
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			lu.sign = -lu.sign
		}
		pv := d[k*n+k]
		if pv == 0 {
			lu.ok = false
			lu.idiag[k] = 0
			continue
		}
		rowk := d[k*n : k*n+n]
		// ipv = 1/pv, one division per column, multiplies below. This is
		// the runtime's complex division (Smith's algorithm) written out
		// for the numerator 1+0i, term for term in the runtime's order,
		// so it rounds the same and saves the call; when both parts come
		// out NaN the runtime's own division applies its C99 fix-up.
		var ipv complex128
		if re, im := real(pv), imag(pv); math.Abs(re) >= math.Abs(im) {
			ratio := im / re
			denom := re + ratio*im
			ipv = complex((1+0*ratio)/denom, (0-1*ratio)/denom)
		} else {
			ratio := re / im
			denom := im + ratio*re
			ipv = complex((1*ratio+0)/denom, (0*ratio-1)/denom)
		}
		if e, f := real(ipv), imag(ipv); e != e && f != f {
			ipv = 1 / pv
		}
		lu.idiag[k] = ipv
		for i := k + 1; i < n; i++ {
			rowi := d[i*n : i*n+n]
			f := rowi[k] * ipv
			rowi[k] = f
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				rowi[j] -= f * rowk[j]
			}
		}
	}
}

// ErrSingular is matched (errors.Is) by every error that reports a system
// singular to working precision: dense and sparse solves, transient
// steps and noise sweeps. Each keeps its own message.
var ErrSingular = errors.New("mna: singular matrix")

// singularf formats an error that matches ErrSingular.
func singularf(format string, args ...any) error {
	return singularError(fmt.Sprintf(format, args...))
}

type singularError string

func (e singularError) Error() string        { return string(e) }
func (e singularError) Is(target error) bool { return target == ErrSingular }

// OK reports whether the factorization succeeded (matrix nonsingular).
func (lu *LU) OK() bool { return lu.ok }

// Det returns the determinant in scaled form.
func (lu *LU) Det() ScaledDet {
	mant := complex(float64(lu.sign), 0)
	exp := 0
	for k := 0; k < lu.m.N; k++ {
		mant *= lu.m.At(k, k)
		mant, exp = normalizeDet(mant, exp)
		if mant == 0 {
			return ScaledDet{}
		}
	}
	return ScaledDet{mant, exp}
}

// Solve computes x solving Ax = b (b is not modified).
func (lu *LU) Solve(b []complex128) ([]complex128, error) {
	x := make([]complex128, len(b))
	if err := lu.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves Ax = b into the caller-provided x (len(x) == len(b) ==
// N; x and b may be the same slice). b is otherwise not modified. It
// performs no allocations.
func (lu *LU) SolveInto(x, b []complex128) error {
	if !lu.ok {
		return ErrSingular
	}
	n := lu.m.N
	if len(b) != n || len(x) != n {
		return fmt.Errorf("mna: rhs length %d/%d, want %d", len(b), len(x), n)
	}
	copy(x, b)
	d := lu.m.data
	// apply pivots
	for k := 0; k < n; k++ {
		p := lu.pivot[k]
		if p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// forward substitution (L has unit diagonal)
	for i := 1; i < n; i++ {
		row := d[i*n : i*n+n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// back substitution (reciprocal diagonal precomputed by factor)
	for i := n - 1; i >= 0; i-- {
		row := d[i*n : i*n+n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s * lu.idiag[i]
	}
	return nil
}

// Det computes det(a) directly.
func Det(a *Matrix) ScaledDet { return Factor(a).Det() }
