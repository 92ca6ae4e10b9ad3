package mna

import (
	"fmt"
	"math"
	"sort"
)

// Sparse MNA path of the transient engine: CSC storage assembled from the
// netlist stamps, a Markowitz-style minimum-degree ordering, and a real LU
// factorization split into a pattern-analysis phase done once per circuit
// and a numeric refactorization done per evaluation point. The split
// exploits the invariant of time stepping — every step and every Newton
// Jacobian refresh changes matrix *values*, never the sparsity *pattern* —
// so the symbolic work (ordering, reach sets, fill-in, pivot sequence) is
// paid once and each subsequent point is a straight numeric replay with
// zero allocations.
//
// The design follows the classic SPICE/KLU recipe: the first Factor runs
// left-looking Gilbert–Peierls elimination with partial pivoting and
// records the pivot order plus the final L/U structure; Refactor replays
// that exact schedule on new values and falls back to a full repivoting
// Factor only when a recorded pivot degrades past a threshold.

// Pattern is an immutable CSC sparsity pattern: the structural nonzero
// positions of an N×N matrix, column-major, rows sorted within a column.
// Patterns are shared freely across matrices and factorizations (every
// Transient call on a Circuit uses the circuit's one Pattern).
type Pattern struct {
	N      int
	ColPtr []int // len N+1
	Rows   []int // len nnz, row indices per column, ascending
}

// NewPattern builds a pattern from (row, col) entry pairs (duplicates are
// merged). Entries must lie in [0, n).
func NewPattern(n int, rows, cols []int) *Pattern {
	if len(rows) != len(cols) {
		panic("mna: NewPattern rows/cols length mismatch")
	}
	keys := make([]int, 0, len(rows))
	for i := range rows {
		if rows[i] < 0 || rows[i] >= n || cols[i] < 0 || cols[i] >= n {
			panic(fmt.Sprintf("mna: pattern entry (%d,%d) outside %d×%d", rows[i], cols[i], n, n))
		}
		keys = append(keys, cols[i]*n+rows[i])
	}
	sort.Ints(keys)
	p := &Pattern{N: n, ColPtr: make([]int, n+1)}
	prev := -1
	for _, k := range keys {
		if k == prev {
			continue
		}
		prev = k
		p.Rows = append(p.Rows, k%n)
		p.ColPtr[k/n+1]++
	}
	for c := 0; c < n; c++ {
		p.ColPtr[c+1] += p.ColPtr[c]
	}
	return p
}

// NNZ returns the structural nonzero count.
func (p *Pattern) NNZ() int { return len(p.Rows) }

// Index returns the value-array index of entry (r, c), or -1 if the
// position is not part of the pattern.
func (p *Pattern) Index(r, c int) int {
	lo, hi := p.ColPtr[c], p.ColPtr[c+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if p.Rows[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < p.ColPtr[c+1] && p.Rows[lo] == r {
		return lo
	}
	return -1
}

// minDegreeOrder computes an elimination order by greedy minimum degree on
// the symmetrized pattern — the symmetric specialization of Markowitz
// ordering. Ties break on the lowest node index so the order (and hence
// every downstream factorization) is deterministic.
func minDegreeOrder(p *Pattern) []int {
	n := p.N
	adj := make([][]int, n)
	seen := make([]bool, n)
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for c := 0; c < n; c++ {
		for i := p.ColPtr[c]; i < p.ColPtr[c+1]; i++ {
			addEdge(p.Rows[i], c)
		}
	}
	// Dedupe adjacency.
	for v := 0; v < n; v++ {
		out := adj[v][:0]
		for _, u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
		adj[v] = out
		for _, u := range out {
			seen[u] = false
		}
	}
	order := make([]int, 0, n)
	dead := make([]bool, n)
	for len(order) < n {
		best, bestDeg := -1, n+1
		for v := 0; v < n; v++ {
			if dead[v] {
				continue
			}
			deg := 0
			for _, u := range adj[v] {
				if !dead[u] {
					deg++
				}
			}
			if deg < bestDeg {
				best, bestDeg = v, deg
			}
		}
		// Eliminate: surviving neighbours of best become a clique.
		dead[best] = true
		order = append(order, best)
		live := adj[best][:0]
		for _, u := range adj[best] {
			if !dead[u] {
				live = append(live, u)
			}
		}
		adj[best] = live
		for i, a := range live {
			for _, b := range live[i+1:] {
				// Skip existing edges to bound growth.
				has := false
				for _, u := range adj[a] {
					if u == b {
						has = true
						break
					}
				}
				if !has {
					addEdge(a, b)
				}
			}
		}
	}
	return order
}

// refactorPivTol is the relative pivot-degradation threshold: a Refactor
// replay whose recorded pivot falls below this fraction of the largest
// candidate magnitude abandons the replay and repivots from scratch.
const refactorPivTol = 1e-6

// SparseLU is a real sparse LU factorization with a reusable symbolic
// phase; it is the transient engine's solver. Typical use:
//
//	var lu SparseLU
//	lu.Analyze(pat)     // once per pattern: ordering + scratch
//	lu.Factor(vals)     // first point: pivoting factorization
//	lu.Refactor(vals2)  // every later point: numeric replay
//	lu.SolveInto(x, b)
//
// A SparseLU is single-goroutine scratch, exactly like the dense LU: each
// circuit's transient scratch holds its own.
type SparseLU struct {
	pat *Pattern
	q   []int // column order (minimum degree)

	pinv []int // original row -> pivot position
	prow []int // pivot position -> original row

	// U: per pivot column k, the topologically ordered update sequence of
	// earlier pivot columns c (< k); uVals aligned. uDiagR holds 1/pivot.
	uPtr   []int
	uCols  []int
	uVals  []float64
	uDiag  []float64
	uDiagR []float64
	// L: per pivot column k, pivot-space rows (> k) with multipliers.
	lPtr  []int
	lRows []int
	lVals []float64

	// scratch
	w     []float64 // dense accumulator, kept all-zero between columns
	y     []float64 // solve buffer
	mark  []int     // DFS visit epochs
	epoch int
	stack []int // DFS node stack
	pos   []int // DFS per-node child cursor
	topo  []int // reach in topological order
	cand  []int // unpivoted candidate rows of the current column

	factored bool
	ok       bool
}

// Analyze binds the factorization to a pattern: computes the elimination
// order and sizes the scratch. It must be called before Factor/Refactor
// and may be called again to rebind to a different pattern.
func (lu *SparseLU) Analyze(pat *Pattern) {
	n := pat.N
	lu.pat = pat
	lu.q = minDegreeOrder(pat)
	grow := func(s []int) []int {
		if cap(s) < n {
			return make([]int, n)
		}
		return s[:n]
	}
	lu.pinv, lu.prow = grow(lu.pinv), grow(lu.prow)
	lu.mark, lu.pos, lu.topo = grow(lu.mark), grow(lu.pos), grow(lu.topo)
	lu.stack = lu.stack[:0]
	if cap(lu.w) < n {
		lu.w = make([]float64, n)
		lu.y = make([]float64, n)
	}
	lu.w, lu.y = lu.w[:n], lu.y[:n]
	for i := range lu.w {
		lu.w[i] = 0
		lu.mark[i] = 0
	}
	lu.epoch = 0
	if cap(lu.uPtr) < n+1 {
		lu.uPtr = make([]int, n+1)
		lu.lPtr = make([]int, n+1)
	}
	lu.uPtr, lu.lPtr = lu.uPtr[:n+1], lu.lPtr[:n+1]
	if cap(lu.uDiag) < n {
		lu.uDiag = make([]float64, n)
		lu.uDiagR = make([]float64, n)
	}
	lu.uDiag, lu.uDiagR = lu.uDiag[:n], lu.uDiagR[:n]
	lu.factored, lu.ok = false, false
}

// OK reports whether the last Factor/Refactor succeeded.
func (lu *SparseLU) OK() bool { return lu.ok }

// Factor performs the full pivoting factorization of the pattern-aligned
// values. It records the pivot sequence and the L/U structure for later
// Refactor replays. Returns false (and marks the LU not-OK) on a
// structurally or numerically singular matrix.
func (lu *SparseLU) Factor(vals []float64) bool {
	n := lu.pat.N
	for i := 0; i < n; i++ {
		lu.pinv[i], lu.prow[i] = -1, -1
	}
	lu.uCols, lu.uVals = lu.uCols[:0], lu.uVals[:0]
	lu.lRows, lu.lVals = lu.lRows[:0], lu.lVals[:0]
	lu.factored, lu.ok = false, false

	for k := 0; k < n; k++ {
		j := lu.q[k]
		top := lu.reach(j)
		// Numeric left-looking solve: scatter A(:,j), apply each pivoted
		// column of the reach in topological order.
		for i := lu.pat.ColPtr[j]; i < lu.pat.ColPtr[j+1]; i++ {
			lu.w[lu.pat.Rows[i]] = vals[i]
		}
		lu.uPtr[k] = len(lu.uCols)
		lu.cand = lu.cand[:0]
		for t := top; t < n; t++ {
			r := lu.topo[t]
			c := lu.pinv[r]
			if c < 0 {
				lu.cand = append(lu.cand, r)
				continue
			}
			v := lu.w[r]
			lu.uCols = append(lu.uCols, c)
			lu.uVals = append(lu.uVals, v)
			if v != 0 {
				for i := lu.lPtr[c]; i < lu.lPtr[c+1]; i++ {
					lu.w[lu.lRows[i]] -= v * lu.lVals[i]
				}
			}
		}
		// Partial pivot over the unpivoted candidates.
		piv, best := -1, 0.0
		for _, r := range lu.cand {
			if a := math.Abs(lu.w[r]); piv < 0 || a > best {
				piv, best = r, a
			}
		}
		if piv < 0 || best == 0 {
			// Structurally or numerically singular: reset scratch and bail.
			for t := top; t < n; t++ {
				lu.w[lu.topo[t]] = 0
			}
			lu.lPtr[k+1] = len(lu.lRows)
			lu.uPtr[k] = len(lu.uCols)
			return false
		}
		lu.pinv[piv], lu.prow[k] = k, piv
		pv := lu.w[piv]
		lu.uDiag[k] = pv
		lu.uDiagR[k] = 1 / pv
		lu.lPtr[k] = len(lu.lRows)
		for _, r := range lu.cand {
			if r == piv {
				continue
			}
			lu.lRows = append(lu.lRows, r)
			lu.lVals = append(lu.lVals, lu.w[r]*lu.uDiagR[k])
		}
		lu.lPtr[k+1] = len(lu.lRows)
		for t := top; t < n; t++ {
			lu.w[lu.topo[t]] = 0
		}
	}
	lu.uPtr[n] = len(lu.uCols)
	// Finalize: convert L row indices to pivot space so Refactor and the
	// solves run entirely on the permuted system.
	for i, r := range lu.lRows {
		lu.lRows[i] = lu.pinv[r]
	}
	lu.factored, lu.ok = true, true
	return true
}

// reach runs an iterative DFS from the rows of pattern column j through
// the already-built L columns, filling lu.topo[top..n-1] with the reach in
// topological order (CSparse-style) and returning top. During Factor the
// L structure is indexed by original rows, which is exactly the space the
// DFS walks in.
func (lu *SparseLU) reach(j int) int {
	n := lu.pat.N
	lu.epoch++
	top := n
	for i := lu.pat.ColPtr[j]; i < lu.pat.ColPtr[j+1]; i++ {
		r := lu.pat.Rows[i]
		if lu.mark[r] == lu.epoch {
			continue
		}
		lu.stack = append(lu.stack, r)
		for len(lu.stack) > 0 {
			r := lu.stack[len(lu.stack)-1]
			if lu.mark[r] != lu.epoch {
				lu.mark[r] = lu.epoch
				if c := lu.pinv[r]; c >= 0 {
					lu.pos[r] = lu.lPtr[c]
				} else {
					lu.pos[r] = -1 // unpivoted row: leaf
				}
			}
			advanced := false
			if c := lu.pinv[r]; c >= 0 {
				for lu.pos[r] < lu.lPtr[c+1] {
					child := lu.lRows[lu.pos[r]]
					lu.pos[r]++
					if lu.mark[child] != lu.epoch {
						lu.stack = append(lu.stack, child)
						advanced = true
						break
					}
				}
			}
			if !advanced {
				lu.stack = lu.stack[:len(lu.stack)-1]
				top--
				lu.topo[top] = r
			}
		}
	}
	return top
}

// Refactor replays the recorded elimination schedule on new pattern-aligned
// values: no ordering, no reach, no pivot search — a pure numeric pass with
// zero allocations. If a recorded pivot has degraded below refactorPivTol
// of its column's largest candidate (the values moved too far from the ones
// the pivot sequence was chosen for), it transparently falls back to a full
// repivoting Factor.
func (lu *SparseLU) Refactor(vals []float64) bool {
	if !lu.factored {
		return lu.Factor(vals)
	}
	n := lu.pat.N
	lu.ok = false
	for k := 0; k < n; k++ {
		j := lu.q[k]
		for i := lu.pat.ColPtr[j]; i < lu.pat.ColPtr[j+1]; i++ {
			lu.w[lu.pinv[lu.pat.Rows[i]]] += vals[i]
		}
		for t := lu.uPtr[k]; t < lu.uPtr[k+1]; t++ {
			c := lu.uCols[t]
			v := lu.w[c]
			lu.uVals[t] = v
			if v != 0 {
				for i := lu.lPtr[c]; i < lu.lPtr[c+1]; i++ {
					lu.w[lu.lRows[i]] -= v * lu.lVals[i]
				}
			}
		}
		pv := lu.w[k]
		best := math.Abs(pv)
		for i := lu.lPtr[k]; i < lu.lPtr[k+1]; i++ {
			if a := math.Abs(lu.w[lu.lRows[i]]); a > best {
				best = a
			}
		}
		if pv == 0 || math.Abs(pv) < refactorPivTol*best {
			// Recorded pivot no longer viable: clear scratch and repivot.
			lu.w[k] = 0
			for t := lu.uPtr[k]; t < lu.uPtr[k+1]; t++ {
				lu.w[lu.uCols[t]] = 0
			}
			for i := lu.lPtr[k]; i < lu.lPtr[k+1]; i++ {
				lu.w[lu.lRows[i]] = 0
			}
			return lu.Factor(vals)
		}
		lu.uDiag[k] = pv
		lu.uDiagR[k] = 1 / pv
		for i := lu.lPtr[k]; i < lu.lPtr[k+1]; i++ {
			r := lu.lRows[i]
			lu.lVals[i] = lu.w[r] * lu.uDiagR[k]
			lu.w[r] = 0
		}
		lu.w[k] = 0
		for t := lu.uPtr[k]; t < lu.uPtr[k+1]; t++ {
			lu.w[lu.uCols[t]] = 0
		}
	}
	lu.ok = true
	return true
}

// SolveInto solves Ax = b into x (len n each; x and b may alias). It
// performs no allocations.
func (lu *SparseLU) SolveInto(x, b []float64) error {
	if !lu.ok {
		return singularf("mna: singular sparse matrix")
	}
	n := lu.pat.N
	if len(x) != n || len(b) != n {
		return fmt.Errorf("mna: sparse rhs length %d/%d, want %d", len(b), len(x), n)
	}
	y := lu.y
	for k := 0; k < n; k++ {
		y[k] = b[lu.prow[k]]
	}
	// Forward (L, unit diagonal, pivot space).
	for k := 0; k < n; k++ {
		v := y[k]
		if v == 0 {
			continue
		}
		for i := lu.lPtr[k]; i < lu.lPtr[k+1]; i++ {
			y[lu.lRows[i]] -= lu.lVals[i] * v
		}
	}
	// Backward (U). Column k's off-diagonal entries live at rows uCols[t].
	for k := n - 1; k >= 0; k-- {
		v := y[k] * lu.uDiagR[k]
		y[k] = v
		if v == 0 {
			continue
		}
		for t := lu.uPtr[k]; t < lu.uPtr[k+1]; t++ {
			y[lu.uCols[t]] -= lu.uVals[t] * v
		}
	}
	for k := 0; k < n; k++ {
		x[lu.q[k]] = y[k]
	}
	return nil
}

// matVecAdd accumulates y += A·x for a pattern-aligned CSC value array.
func matVecAdd(y []float64, p *Pattern, vals, x []float64) {
	for c := 0; c < p.N; c++ {
		xc := x[c]
		if xc == 0 {
			continue
		}
		for i := p.ColPtr[c]; i < p.ColPtr[c+1]; i++ {
			y[p.Rows[i]] += vals[i] * xc
		}
	}
}

// matVecSub accumulates y -= A·x for a pattern-aligned CSC value array.
func matVecSub(y []float64, p *Pattern, vals, x []float64) {
	for c := 0; c < p.N; c++ {
		xc := x[c]
		if xc == 0 {
			continue
		}
		for i := p.ColPtr[c]; i < p.ColPtr[c+1]; i++ {
			y[p.Rows[i]] -= vals[i] * xc
		}
	}
}
