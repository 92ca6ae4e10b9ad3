package mna

import (
	"fmt"
	"math"
)

// The solves and determinants every analysis runs in the circuit's own
// scratch (see Circuit).
//
// Kernel exactness. Every fast path below returns the bits of the plain
// path it replaces (A(s) = G + sC by Matrix.AddScaled, then the complex
// LU). Each follows from one invariant of Compile and Restamped: all
// stamps are real, and no entry of G, C or b holds a negative zero (they
// are accumulated from +0 with +=, and x + y is −0 only when both are
// −0). DESIGN.md ("Kernel exactness") has the summary.

// factorAt assembles A(s) = G + sC into the scratch matrix and factors it
// in place.
func (c *Circuit) factorAt(s complex128) *LU {
	c.assemble(s)
	c.lu.FactorInto(c.a)
	return &c.lu
}

// assemble writes A(s) = G + sC into the scratch matrix, computing the sum
// only at the capacitor slots. Elsewhere C is +0, and for finite s the
// product s·0 has ±0 parts, so G + s·0 is G bit for bit: x + ±0 = x
// unless x is −0, which G never holds. A non-finite s makes s·0 NaN, so
// it keeps the full sum. The first call makes the scratch matrix and the
// solution vector.
func (c *Circuit) assemble(s complex128) {
	if c.a == nil {
		n := c.Size()
		c.a, c.x = NewMatrix(n), make([]complex128, n)
	}
	if !finite(real(s)) || !finite(imag(s)) {
		c.a.AddScaled(c.G, c.C, s)
		return
	}
	a, g, cv := c.a.data, c.G.data, c.C.data
	copy(a, g)
	for _, i := range c.capSlots {
		a[i] = g[i] + s*cv[i]
	}
}

// finite reports whether v is neither infinite nor NaN.
func finite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }

// SolveAt solves the MNA system at complex frequency s and returns the
// unknown vector (node voltages then branch currents), allocation-free.
// The slice is the circuit's own: the next analysis call on the circuit
// overwrites it.
func (c *Circuit) SolveAt(s complex128) ([]complex128, error) {
	if err := c.factorAt(s).SolveInto(c.x, c.b); err != nil {
		return nil, fmt.Errorf("mna: solve at s=%v: %w", s, err)
	}
	return c.x, nil
}

// DetAt returns det(G + sC) in scaled form, allocation-free.
func (c *Circuit) DetAt(s complex128) ScaledDet {
	if c.assembleReal(s, -1) {
		if d, ok := c.realDet(); ok {
			return d
		}
	}
	return c.factorAt(s).Det()
}

// assembleReal reports whether s is real and finite, and if so writes
// Re A(s) into the real scratch, with column j replaced by Re b when
// j >= 0. At such s every entry of A(s) has imaginary part ±0, and its
// real part is Re G + s·Re C with the product rounded on its own, as in
// the complex multiply (the float64 conversion keeps the compiler from
// fusing it into the sum).
func (c *Circuit) assembleReal(s complex128, j int) bool {
	sr := real(s)
	if imag(s) != 0 || !finite(sr) {
		return false
	}
	n := c.Size()
	if c.re == nil {
		c.re = make([]float64, n*n)
	}
	re, g, cv := c.re, c.G.data, c.C.data
	for i, v := range g {
		re[i] = real(v)
	}
	for _, i := range c.capSlots {
		re[i] = real(g[i]) + float64(sr*real(cv[i]))
	}
	if j >= 0 {
		for i, v := range c.b {
			re[i*n+j] = real(v)
		}
	}
	return true
}

// realDet factors the real scratch in place (factorReal) and returns its
// determinant: LU.factor followed by LU.Det, step for step, on float64.
// With every imaginary part ±0, the complex elimination's real parts are
// exactly this one's: abs1 is |re|, so the pivots match (strict >, full-row
// swaps, a zero pivot skipped), each complex product and quotient rounds
// its real part as one float64 operation, and the imaginary parts stay
// ±0. The two can differ only in the sign of a zero, which no nonzero
// result depends on; so the mantissa's real part is bit-identical and its
// imaginary part is +0 where the complex LU may give −0. An overflow
// breaks the argument (Inf·0 is NaN in the complex imaginary parts), so
// ok is false, and the caller takes the complex path, whenever any factor
// entry is not finite.
func (c *Circuit) realDet() (d ScaledDet, ok bool) {
	n := c.Size()
	a := c.re
	sign := factorReal(a, n, nil)
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
