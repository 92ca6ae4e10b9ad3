package mna

import (
	"math"
	"math/rand"
	"testing"
)

// randSparseSystem builds a random diagonally-loaded sparse system with
// about `extra` off-diagonal entries, plus an MNA-style zero-diagonal
// voltage-source row/column pair to exercise pivoting off the diagonal.
func randSparseSystem(rng *rand.Rand, n, extra int) (*Pattern, []float64) {
	type entry struct{ r, c int }
	pos := map[entry]float64{}
	for i := 0; i < n-2; i++ {
		pos[entry{i, i}] = 1 + rng.Float64()*9
	}
	// Branch pair: row n-1 couples node n-2 with ±1 and a zero diagonal.
	pos[entry{n - 1, n - 2}] = 1
	pos[entry{n - 2, n - 1}] = 1
	for k := 0; k < extra; k++ {
		r, c := rng.Intn(n-1), rng.Intn(n-1)
		pos[entry{r, c}] += rng.NormFloat64()
	}
	rows, cols := make([]int, 0, len(pos)), make([]int, 0, len(pos))
	for e := range pos {
		rows = append(rows, e.r)
		cols = append(cols, e.c)
	}
	pat := NewPattern(n, rows, cols)
	vals := make([]float64, pat.NNZ())
	for e, v := range pos {
		vals[pat.Index(e.r, e.c)] = v
	}
	return pat, vals
}

func denseFromSparse(pat *Pattern, vals []float64) *Matrix {
	m := NewMatrix(pat.N)
	for c := 0; c < pat.N; c++ {
		for i := pat.ColPtr[c]; i < pat.ColPtr[c+1]; i++ {
			m.Set(pat.Rows[i], c, complex(vals[i], 0))
		}
	}
	return m
}

func TestPatternIndex(t *testing.T) {
	pat := NewPattern(3, []int{0, 2, 1, 2, 2}, []int{0, 0, 1, 2, 2})
	if pat.NNZ() != 4 { // duplicate (2,2) merged
		t.Fatalf("nnz = %d, want 4", pat.NNZ())
	}
	for _, tc := range []struct{ r, c, want int }{
		{0, 0, 0}, {2, 0, 1}, {1, 1, 2}, {2, 2, 3}, {1, 0, -1}, {0, 2, -1},
	} {
		if got := pat.Index(tc.r, tc.c); got != tc.want {
			t.Errorf("Index(%d,%d) = %d, want %d", tc.r, tc.c, got, tc.want)
		}
	}
}

func TestSparseLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(30)
		pat, vals := randSparseSystem(rng, n, 3*n)
		dense := denseFromSparse(pat, vals)
		ref, refOK := Factor(dense), true
		if !ref.OK() {
			refOK = false
		}
		var lu SparseLU
		lu.Analyze(pat)
		got := lu.Factor(vals)
		if got != refOK {
			t.Fatalf("trial %d: sparse ok=%v dense ok=%v", trial, got, refOK)
		}
		if !got {
			continue
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		if err := lu.SolveInto(x, b); err != nil {
			t.Fatalf("trial %d: solve: %v", trial, err)
		}
		bc := make([]complex128, n)
		for i := range b {
			bc[i] = complex(b[i], 0)
		}
		want, err := ref.Solve(bc)
		if err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		for i := range x {
			if math.Abs(x[i]-real(want[i])) > 1e-8*(1+math.Abs(real(want[i]))) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, x[i], real(want[i]))
			}
		}
	}
}

func TestSparseLURefactorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 20
	pat, vals := randSparseSystem(rng, n, 60)
	var lu SparseLU
	lu.Analyze(pat)
	if !lu.Factor(vals) {
		t.Fatal("initial factor failed")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	// Perturb values repeatedly; Refactor must track the dense reference.
	vals2 := append([]float64(nil), vals...)
	for trial := 0; trial < 20; trial++ {
		for i := range vals2 {
			vals2[i] = vals[i] * (1 + 0.3*rng.NormFloat64())
		}
		if !lu.Refactor(vals2) {
			t.Fatalf("trial %d: refactor failed", trial)
		}
		if err := lu.SolveInto(x, b); err != nil {
			t.Fatalf("trial %d: solve: %v", trial, err)
		}
		dense := denseFromSparse(pat, vals2)
		bc := make([]complex128, n)
		for i := range b {
			bc[i] = complex(b[i], 0)
		}
		want, err := Factor(dense).Solve(bc)
		if err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		for i := range x {
			if math.Abs(x[i]-real(want[i])) > 1e-7*(1+math.Abs(real(want[i]))) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, x[i], real(want[i]))
			}
		}
	}
}

func TestSparseLURefactorRepivots(t *testing.T) {
	// Values that invert the magnitude relationship the original pivot
	// sequence was chosen for: the replay must detect the degraded pivot
	// and transparently repivot rather than return garbage.
	pat := NewPattern(2,
		[]int{0, 1, 0, 1},
		[]int{0, 0, 1, 1})
	vals := []float64{10, 1, 1, 10}
	var lu SparseLU
	lu.Analyze(pat)
	if !lu.Factor(vals) {
		t.Fatal("factor failed")
	}
	flipped := []float64{1e-12, 5, 5, 1e-12}
	if !lu.Refactor(flipped) {
		t.Fatal("refactor failed")
	}
	x := make([]float64, 2)
	if err := lu.SolveInto(x, []float64{5, 5}); err != nil {
		t.Fatal(err)
	}
	// Near-antidiagonal system: x ≈ [1, 1].
	for i, want := range []float64{1, 1} {
		if math.Abs(x[i]-want) > 1e-9 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want)
		}
	}
}

func TestSparseLUSingular(t *testing.T) {
	pat := NewPattern(3,
		[]int{0, 1, 0, 1, 2},
		[]int{0, 0, 1, 1, 2})
	// Column 2 only has its diagonal; zero it for numeric singularity.
	vals := []float64{1, 2, 3, 6, 0} // rows 0/1 proportional AND w[2,2]=0
	var lu SparseLU
	lu.Analyze(pat)
	if lu.Factor(vals) {
		t.Fatal("factor of singular matrix succeeded")
	}
	if lu.OK() {
		t.Fatal("OK() true after singular factor")
	}
	if err := lu.SolveInto(make([]float64, 3), make([]float64, 3)); err == nil {
		t.Fatal("solve on singular factorization did not error")
	}
	// A singular Refactor attempt must also recover once values are fixed.
	vals[4] = 2
	vals[3] = 1
	if !lu.Refactor(vals) {
		t.Fatal("refactor of repaired matrix failed")
	}
}

func TestSparseLUSolveAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pat, vals := randSparseSystem(rng, 10, 25)
	var lu SparseLU
	lu.Analyze(pat)
	if !lu.Factor(vals) {
		t.Fatal("factor failed")
	}
	b := make([]float64, 10)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, 10)
	if err := lu.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	inPlace := append([]float64(nil), b...)
	if err := lu.SolveInto(inPlace, inPlace); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-inPlace[i]) > 1e-12 {
			t.Fatalf("aliased solve diverged at %d: %g vs %g", i, inPlace[i], x[i])
		}
	}
}

func TestSparseLUSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pat, vals := randSparseSystem(rng, 25, 80)
	var lu SparseLU
	lu.Analyze(pat)
	if !lu.Factor(vals) {
		t.Fatal("factor failed")
	}
	b := make([]float64, 25)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, 25)
	vals2 := append([]float64(nil), vals...)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range vals2 {
			vals2[i] = vals[i] * 1.01
		}
		if !lu.Refactor(vals2) {
			t.Fatal("refactor failed")
		}
		if err := lu.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Refactor+Solve allocates %.1f/op, want 0", allocs)
	}
}

func TestMinDegreeOrderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	pat, _ := randSparseSystem(rng, 30, 90)
	first := minDegreeOrder(pat)
	for i := 0; i < 5; i++ {
		again := minDegreeOrder(pat)
		for k := range first {
			if first[k] != again[k] {
				t.Fatalf("ordering not deterministic at %d: %v vs %v", k, first, again)
			}
		}
	}
	seen := make([]bool, pat.N)
	for _, v := range first {
		if v < 0 || v >= pat.N || seen[v] {
			t.Fatalf("ordering is not a permutation: %v", first)
		}
		seen[v] = true
	}
}
