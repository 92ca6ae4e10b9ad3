package mna

import (
	"fmt"
	"math"
)

// Workspace holds the reusable scratch for repeated solves on one Circuit:
// the assembled A(s) matrix (which the dense LU factors in place), the
// pivot array, and an unknown-vector buffer. Every per-frequency operation
// on a compiled circuit — AC sweep points, determinant evaluations for the
// root finder, noise solves — is one assemble + factor in this scratch,
// so steady-state use performs zero allocations.
//
// Ownership and goroutine-safety rules (see DESIGN.md):
//
//   - A Workspace is bound to the Circuit that created it and is NOT safe
//     for concurrent use: each goroutine must own its own Workspace (the
//     parallel sweep gives each worker one).
//   - Slices returned by SolveAt point into the workspace and are valid
//     only until the next call on the same Workspace; callers that need
//     the values longer must copy them.
//   - The Circuit itself stays immutable after Compile, so any number of
//     Workspaces may solve the same Circuit concurrently. Restamped
//     circuits are the exception: their owner must not restamp while a
//     solve is in flight.
type Workspace struct {
	c  *Circuit
	a  *Matrix // assembled A(s); overwritten by the in-place LU
	lu LU
	x  []complex128 // solution buffer returned by SolveAt

	// re is Re A(s) for determinants at real s, factored in place by
	// realDet; allocated on first use.
	re []float64

	// Noise-analysis scratch (rhs + per-source solution).
	rhs []complex128
	xn  []complex128
}

// NewWorkspace allocates a solver workspace for the circuit. The pooled
// entry points (Circuit.SolveAt, VoltageAt, …) manage workspaces
// internally; allocate one explicitly for tight loops that want the
// zero-allocation guarantee and single-goroutine ownership.
func (c *Circuit) NewWorkspace() *Workspace {
	n := c.Size()
	w := &Workspace{c: c, a: NewMatrix(n), x: make([]complex128, n)}
	w.lu.pivot = make([]int, n)
	w.lu.idiag = make([]complex128, n)
	return w
}

// Kernel exactness. Every fast path below returns the bits of the plain
// path it replaces (A(s) = G + sC by Matrix.AddScaled, then the complex
// LU). Each follows from one invariant of Compile and Restamped: all
// stamps are real, and no entry of G, C or b holds a negative zero (they
// are accumulated from +0 with +=, and x + y is −0 only when both are
// −0). DESIGN.md ("Kernel exactness") has the summary.

// factorAt assembles A(s) = G + sC into the scratch matrix and factors it
// in place.
func (w *Workspace) factorAt(s complex128) *LU {
	w.assemble(s)
	w.lu.FactorInto(w.a)
	return &w.lu
}

// assemble writes A(s) = G + sC into the scratch matrix, computing the sum
// only at the capacitor slots. Elsewhere C is +0, and for finite s the
// product s·0 has ±0 parts, so G + s·0 is G bit for bit: x + ±0 = x
// unless x is −0, which G never holds. A non-finite s makes s·0 NaN, so
// it keeps the full sum.
func (w *Workspace) assemble(s complex128) {
	if !finite(real(s)) || !finite(imag(s)) {
		w.a.AddScaled(w.c.G, w.c.C, s)
		return
	}
	a, g, c := w.a.data, w.c.G.data, w.c.C.data
	copy(a, g)
	for _, i := range w.c.capSlots {
		a[i] = g[i] + s*c[i]
	}
}

// finite reports whether v is neither infinite nor NaN.
func finite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }

// SolveAt solves the MNA system at complex frequency s. The returned
// slice (node voltages then branch currents) is workspace-owned: it is
// overwritten by the next call.
func (w *Workspace) SolveAt(s complex128) ([]complex128, error) {
	if err := w.factorAt(s).SolveInto(w.x, w.c.b); err != nil {
		return nil, fmt.Errorf("mna: solve at s=%v: %w", s, err)
	}
	return w.x, nil
}

// DetAt returns det(G + sC) in scaled form, allocation-free.
func (w *Workspace) DetAt(s complex128) ScaledDet {
	if w.assembleReal(s, -1) {
		if d, ok := w.realDet(); ok {
			return d
		}
	}
	return w.factorAt(s).Det()
}

// NumerDetAt returns the Cramer numerator determinant for the given
// output node (A(s) with the output column replaced by the excitation b),
// allocation-free.
func (w *Workspace) NumerDetAt(node string, s complex128) (ScaledDet, error) {
	j, err := w.c.NodeIndex(node)
	if err != nil {
		return ScaledDet{}, err
	}
	return w.numerDet(j, s), nil
}

// numerDet is NumerDetAt for the output at matrix index j.
func (w *Workspace) numerDet(j int, s complex128) ScaledDet {
	if w.assembleReal(s, j) {
		if d, ok := w.realDet(); ok {
			return d
		}
	}
	w.assemble(s)
	for i := 0; i < w.a.N; i++ {
		w.a.Set(i, j, w.c.b[i])
	}
	w.lu.FactorInto(w.a)
	return w.lu.Det()
}

// assembleReal reports whether s is real and finite, and if so writes
// Re A(s) into the real scratch, with column j replaced by Re b when
// j >= 0. At such s every entry of A(s) has imaginary part ±0, and its
// real part is Re G + s·Re C with the product rounded on its own, as in
// the complex multiply (the float64 conversion keeps the compiler from
// fusing it into the sum).
func (w *Workspace) assembleReal(s complex128, j int) bool {
	sr := real(s)
	if imag(s) != 0 || !finite(sr) {
		return false
	}
	n := w.a.N
	if w.re == nil {
		w.re = make([]float64, n*n)
	}
	re, g, c := w.re, w.c.G.data, w.c.C.data
	for i, v := range g {
		re[i] = real(v)
	}
	for _, i := range w.c.capSlots {
		re[i] = real(g[i]) + float64(sr*real(c[i]))
	}
	if j >= 0 {
		for i, v := range w.c.b {
			re[i*n+j] = real(v)
		}
	}
	return true
}

// realDet factors the real scratch in place and returns its determinant:
// LU.factor followed by LU.Det, step for step, on float64. With every
// imaginary part ±0, the complex elimination's real parts are exactly
// this one's: abs1 is |re|, so the pivots match (strict >, full-row
// swaps, a zero pivot skipped), each complex product and quotient rounds
// its real part as one float64 operation, and the imaginary parts stay
// ±0. The two can differ only in the sign of a zero, which no nonzero
// result depends on; so the mantissa's real part is bit-identical and its
// imaginary part is +0 where the complex LU may give −0. An overflow
// breaks the argument (Inf·0 is NaN in the complex imaginary parts), so
// ok is false, and the caller takes the complex path, whenever any factor
// entry is not finite.
func (w *Workspace) realDet() (d ScaledDet, ok bool) {
	n := w.a.N
	a := w.re
	sign := 1.0
	for k := 0; k < n; k++ {
		p, best := k, math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > best {
				p, best = i, v
			}
		}
		rowk := a[k*n : k*n+n]
		if p != k {
			rp := a[p*n : p*n+n]
			for j := range rowk {
				rowk[j], rp[j] = rp[j], rowk[j]
			}
			sign = -sign
		}
		pv := rowk[k]
		if pv == 0 {
			continue
		}
		ipv := 1 / pv
		for i := k + 1; i < n; i++ {
			rowi := a[i*n : i*n+n]
			f := float64(rowi[k] * ipv)
			rowi[k] = f
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				rowi[j] -= float64(f * rowk[j])
			}
		}
	}
	for _, v := range a {
		if !finite(v) {
			return ScaledDet{}, false
		}
	}
	mant, exp := sign, 0
	for k := 0; k < n; k++ {
		mant, exp = normalizeReal(mant*a[k*n+k], exp)
		if mant == 0 {
			return ScaledDet{}, true
		}
	}
	return ScaledDet{complex(mant, 0), exp}, true
}

// normalizeReal is normalizeDet for a mantissa with zero imaginary part.
func normalizeReal(m float64, e int) (float64, int) {
	if m == 0 {
		return 0, 0
	}
	_, ex := math.Frexp(math.Abs(m))
	return math.Ldexp(m, -ex), e + ex
}

// noiseBuffers returns the workspace-owned rhs and solution scratch for
// noise analysis, allocating on first use.
func (w *Workspace) noiseBuffers() (rhs, x []complex128) {
	if w.rhs == nil {
		n := w.c.Size()
		w.rhs = make([]complex128, n)
		w.xn = make([]complex128, n)
	}
	return w.rhs, w.xn
}

// workspace checks a Workspace out of the circuit's pool (allocating one
// only on first use per P).
func (c *Circuit) workspace() *Workspace {
	if w, ok := c.wsPool.Get().(*Workspace); ok {
		return w
	}
	return c.NewWorkspace()
}

// release returns a workspace to the pool.
func (c *Circuit) release(w *Workspace) { c.wsPool.Put(w) }
