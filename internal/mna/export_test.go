package mna

import "math/cmplx"

// The external tests (package mna_test, which may import the packages
// that import mna) reach the Aberth oracle and the residual check
// through these.

// MaxRootMag is the magnitude (rad/s) from which Poles and Zeros drop
// roots.
const MaxRootMag = maxRootMag

// AberthPoles and AberthZeros are the oracle's Poles and Zeros
// (aberth_oracle_test.go).
var (
	AberthPoles = aberthPoles
	AberthZeros = aberthZeros
)

// RootResidual returns the residual check's Newton step at r relative
// to |r|+1, the quantity Poles and Zeros bound by 1e-6, for the
// characteristic determinant when out is empty and for the Cramer
// numerator of out otherwise.
func RootResidual(c *Circuit, out string, r complex128) float64 {
	j := -1
	if out != "" {
		j, _ = c.NodeIndex(out)
	}
	cols, _ := c.rootColumns(j)
	return cmplx.Abs(c.newtonStep(j, cols, r)) / (cmplx.Abs(r) + 1)
}
