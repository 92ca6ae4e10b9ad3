package mna

import (
	"fmt"
	"math"
)

// The real dense kernels of the root finder (roots.go): an LU
// factorization shared with realDet, its solve, and the eigenvalues of a
// small nonsymmetric matrix by balancing, Hessenberg reduction and the
// Francis double-shift QR iteration (EISPACK's balanc, elmhes and hqr).
// Every matrix is n×n, row-major.

// hqrMaxIter bounds the QR iterations spent on any one eigenvalue (or
// conjugate pair), as in EISPACK's hqr.
const hqrMaxIter = 30

// factorReal factors a in place by Gaussian elimination with partial
// pivoting on |a|: rows are swapped whole, the unit-lower multipliers
// overwrite the eliminated entries and U the rest, and a zero pivot
// column is skipped. It records each step's pivot row in piv when piv is
// non-nil and returns the sign of the row permutation. realDet's
// determinant is exact against the complex LU because this elimination
// mirrors LU.factor operation for operation; keep it so.
func factorReal(a []float64, n int, piv []int) float64 {
	sign := 1.0
	for k := 0; k < n; k++ {
		p, best := k, math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > best {
				p, best = i, v
			}
		}
		if piv != nil {
			piv[k] = p
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
	return sign
}

// solveReal solves a x = b in place in x, where lu and piv are
// factorReal's output for a nonsingular a.
func solveReal(lu []float64, n int, piv []int, x []float64) {
	for k, p := range piv[:n] {
		if p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	for i := 1; i < n; i++ {
		row := lu[i*n : i*n+n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n : i*n+n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// eigvals writes the eigenvalues of a into wr + i·wi, destroying a; a
// is best balanced first. A conjugate pair fills two adjacent slots, the
// negative imaginary part first. It fails with ErrNoConverge when an
// eigenvalue does not settle within hqrMaxIter iterations.
func eigvals(a []float64, n int, wr, wi []float64) error {
	hessenberg(a, n)
	return hqr(a, n, wr, wi)
}

// balance scales rows and columns by powers of two (exact) so that each
// row and its column have similar norms: a similarity transform that
// leaves the eigenvalues unchanged and makes the QR iteration's rounding
// error proportional to the balanced norm.
func balance(a []float64, n int) {
	const radix, sqrdx = 2.0, 4.0
	for done := false; !done; {
		done = true
		for i := 0; i < n; i++ {
			var c, r float64
			for j := 0; j < n; j++ {
				if j != i {
					c += math.Abs(a[j*n+i])
					r += math.Abs(a[i*n+j])
				}
			}
			if c == 0 || r == 0 || !finite(c+r) {
				continue
			}
			g, f, s := r/radix, 1.0, c+r
			for c < g {
				f *= radix
				c *= sqrdx
			}
			g = r * radix
			for c > g {
				f /= radix
				c /= sqrdx
			}
			if (c+r)/f < 0.95*s {
				done = false
				g = 1 / f
				for j := 0; j < n; j++ {
					a[i*n+j] *= g
				}
				for j := 0; j < n; j++ {
					a[j*n+i] *= f
				}
			}
		}
	}
}

// hessenberg reduces a to upper Hessenberg form by stabilized elementary
// similarity transforms (Gaussian elimination with pivoting), zeroing
// the entries below the subdiagonal.
func hessenberg(a []float64, n int) {
	for m := 1; m < n-1; m++ {
		x, piv := 0.0, m
		for j := m; j < n; j++ {
			if math.Abs(a[j*n+m-1]) > math.Abs(x) {
				x, piv = a[j*n+m-1], j
			}
		}
		if piv != m {
			for j := m - 1; j < n; j++ {
				a[piv*n+j], a[m*n+j] = a[m*n+j], a[piv*n+j]
			}
			for j := 0; j < n; j++ {
				a[j*n+piv], a[j*n+m] = a[j*n+m], a[j*n+piv]
			}
		}
		if x == 0 {
			continue
		}
		for i := m + 1; i < n; i++ {
			y := a[i*n+m-1]
			if y == 0 {
				continue
			}
			y /= x
			a[i*n+m-1] = 0
			for j := m; j < n; j++ {
				a[i*n+j] -= y * a[m*n+j]
			}
			for j := 0; j < n; j++ {
				a[j*n+m] += y * a[j*n+i]
			}
		}
	}
}

// hqr finds the eigenvalues of the upper Hessenberg matrix a by the
// Francis double-shift QR iteration, deflating one eigenvalue or one 2×2
// block at a time from the bottom.
func hqr(a []float64, n int, wr, wi []float64) error {
	anorm := 0.0
	for i := 0; i < n; i++ {
		for j := max(i-1, 0); j < n; j++ {
			anorm += math.Abs(a[i*n+j])
		}
	}
	t := 0.0 // the exceptional shifts applied so far
	for nn := n - 1; nn >= 0; {
		for its := 0; ; its++ {
			// The largest l ≤ nn whose subdiagonal entry is negligible
			// splits off the active block l..nn.
			l := nn
			for ; l >= 1; l-- {
				s := math.Abs(a[(l-1)*n+l-1]) + math.Abs(a[l*n+l])
				if s == 0 {
					s = anorm
				}
				if math.Abs(a[l*n+l-1])+s == s {
					a[l*n+l-1] = 0
					break
				}
			}
			x := a[nn*n+nn]
			if l == nn { // one real eigenvalue
				wr[nn], wi[nn] = x+t, 0
				nn--
				break
			}
			y := a[(nn-1)*n+nn-1]
			w := a[nn*n+nn-1] * a[(nn-1)*n+nn]
			if l == nn-1 { // a 2×2 block: two real eigenvalues or a pair
				p := 0.5 * (y - x)
				q := p*p + w
				z := math.Sqrt(math.Abs(q))
				x += t
				if q >= 0 {
					z = p + math.Copysign(z, p)
					wr[nn-1], wr[nn] = x+z, x+z
					if z != 0 {
						wr[nn] = x - w/z
					}
					wi[nn-1], wi[nn] = 0, 0
				} else {
					wr[nn-1], wr[nn] = x+p, x+p
					wi[nn-1], wi[nn] = -z, z
				}
				nn -= 2
				break
			}
			if its == hqrMaxIter {
				return fmt.Errorf("mna: QR iteration: eigenvalue %d unsettled after %d iterations: %w",
					nn, hqrMaxIter, ErrNoConverge)
			}
			if its == 10 || its == 20 { // exceptional shift
				t += x
				for i := 0; i <= nn; i++ {
					a[i*n+i] -= x
				}
				s := math.Abs(a[nn*n+nn-1]) + math.Abs(a[(nn-1)*n+nn-2])
				x = 0.75 * s
				y = x
				w = -0.4375 * s * s
			}
			// Form the double shift and look for two consecutive small
			// subdiagonal entries.
			var p, q, r, z float64
			m := nn - 2
			for ; m >= l; m-- {
				z = a[m*n+m]
				r = x - z
				s := y - z
				p = (r*s-w)/a[(m+1)*n+m] + a[m*n+m+1]
				q = a[(m+1)*n+m+1] - z - r - s
				r = a[(m+2)*n+m+1]
				s = math.Abs(p) + math.Abs(q) + math.Abs(r)
				p, q, r = p/s, q/s, r/s
				if m == l {
					break
				}
				u := math.Abs(a[m*n+m-1]) * (math.Abs(q) + math.Abs(r))
				v := math.Abs(p) * (math.Abs(a[(m-1)*n+m-1]) + math.Abs(z) + math.Abs(a[(m+1)*n+m+1]))
				if u+v == v {
					break
				}
			}
			for i := m + 2; i <= nn; i++ {
				a[i*n+i-2] = 0
				if i != m+2 {
					a[i*n+i-3] = 0
				}
			}
			// The double QR step on rows l..nn and columns m..nn.
			for k := m; k <= nn-1; k++ {
				if k != m {
					p = a[k*n+k-1]
					q = a[(k+1)*n+k-1]
					r = 0
					if k != nn-1 {
						r = a[(k+2)*n+k-1]
					}
					if x = math.Abs(p) + math.Abs(q) + math.Abs(r); x != 0 {
						p, q, r = p/x, q/x, r/x
					}
				}
				s := math.Copysign(math.Sqrt(p*p+q*q+r*r), p)
				if s == 0 {
					continue
				}
				if k == m {
					if l != m {
						a[k*n+k-1] = -a[k*n+k-1]
					}
				} else {
					a[k*n+k-1] = -s * x
				}
				p += s
				x, y, z = p/s, q/s, r/s
				q /= p
				r /= p
				for j := k; j <= nn; j++ { // row modification
					p = a[k*n+j] + q*a[(k+1)*n+j]
					if k != nn-1 {
						p += r * a[(k+2)*n+j]
						a[(k+2)*n+j] -= p * z
					}
					a[(k+1)*n+j] -= p * y
					a[k*n+j] -= p * x
				}
				for i := l; i <= min(nn, k+3); i++ { // column modification
					p = x*a[i*n+k] + y*a[i*n+k+1]
					if k != nn-1 {
						p += z * a[i*n+k+2]
						a[i*n+k+2] -= p * r
					}
					a[i*n+k+1] -= p * q
					a[i*n+k] -= p
				}
			}
		}
	}
	return nil
}
