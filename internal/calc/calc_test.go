package calc

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"artisan/internal/units"
)

func evalOK(t *testing.T, src string) float64 {
	t.Helper()
	v, err := Eval(src, NewEnv())
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"1+2*3", 7},
		{"(1+2)*3", 9},
		{"2^10", 1024},
		{"2^3^2", 512}, // right associative
		{"10/4", 2.5},
		{"-3+5", 2},
		{"--3", 3},
		{"+4", 4},
		{"1e3 + 1k", 2000},
		{"4p * 1MEG", 4e-6},
		{"sqrt(16)", 4},
		{"min(3, 2)", 2},
		{"max(3, 2)", 3},
		{"abs(-7)", 7},
		{"log10(1000)", 3},
		{"db(100)", 40},
		{"undb(40)", 100},
		{"pow(2, 8)", 256},
		{"2*pi", 2 * math.Pi},
		{"1k || 1k", 500},
		{"par(1k, 1k, 1k)", 1000.0 / 3},
		{"cbrt(27)", 3},
		{"atan2(1, 1)", math.Pi / 4},
	}
	for _, c := range cases {
		got := evalOK(t, c.src)
		if !units.ApproxEqual(got, c.want, 1e-12) {
			t.Errorf("Eval(%q) = %g, want %g", c.src, got, c.want)
		}
	}
}

// The paper's Fig. 7 Q3→A3 calculation: gm3 = 8*pi*GBW*CL with GBW=1MHz,
// CL=10pF must give 251.2u (their rounded value; exact is 251.33u).
func TestPaperNMCCalculation(t *testing.T) {
	env := NewEnv()
	env.Set("GBW", 1e6)
	env.Set("CL", 10e-12)
	gm3, err := Eval("gm3 = 8*pi*GBW*CL", env)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(gm3, 2.513e-4, 1e-3) {
		t.Errorf("gm3 = %g, want about 251.3u", gm3)
	}
	gm1, err := Eval("gm1 = gm3*Cm1/(4*CL)", func() *Env { env.Set("Cm1", 4e-12); return env }())
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(gm1, 2.513e-5, 1e-3) {
		t.Errorf("gm1 = %g, want about 25.13u", gm1)
	}
	// Assignment should have bound gm3 for later steps.
	if v, ok := env.Get("gm3"); !ok || v != gm3 {
		t.Error("assignment did not bind gm3 in env")
	}
}

func TestVariablesAndAssignment(t *testing.T) {
	env := NewEnv()
	if _, err := Eval("x = 3", env); err != nil {
		t.Fatal(err)
	}
	if _, err := Eval("y = x^2 + 1", env); err != nil {
		t.Fatal(err)
	}
	v, err := Eval("y / 2", env)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Errorf("y/2 = %g, want 5", v)
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"", "1/0", "unknownvar", "foo(1)", "sqrt(-1)", "log10(0)",
		"1 +", "(1+2", "min(1)", "par()", "1 | 2", "ln(-3)",
		"0 || 0", "@", "1..2",
	}
	for _, src := range bad {
		if v, err := Eval(src, NewEnv()); err == nil {
			t.Errorf("Eval(%q) = %g, want error", src, v)
		}
	}
}

func TestParallelOperator(t *testing.T) {
	// Ro3 || RL as in the NMC gain formula.
	env := NewEnv()
	env.Set("Ro3", 200e3)
	env.Set("RL", 1e6)
	v, err := Eval("Ro3 || RL", env)
	if err != nil {
		t.Fatal(err)
	}
	want := 200e3 * 1e6 / (200e3 + 1e6)
	if !units.ApproxEqual(v, want, 1e-12) {
		t.Errorf("parallel = %g, want %g", v, want)
	}
}

// Eval through the parse cache answers as a fresh parse does, for sources
// stored before the cache's bound and for sources that arrive after it.
func TestParseCacheBound(t *testing.T) {
	check := func(src string) {
		t.Helper()
		env := NewEnv()
		env.Set("GBW", 1e6)
		got, err := Eval(src, env)
		if err != nil {
			t.Fatalf("Eval(%q): %v", src, err)
		}
		n, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := n.eval(env)
		if err != nil || got != want {
			t.Fatalf("Eval(%q) = %g, fresh parse gives %g (%v)", src, got, want, err)
		}
	}
	for i := 0; i < maxParsed+10; i++ {
		src := fmt.Sprintf("v%d = %d*GBW + 1", i, i)
		check(src)
		check(src) // the second call reads the cache while it has room
	}
	parsed.mu.Lock()
	n := len(parsed.m)
	parsed.mu.Unlock()
	if n != maxParsed {
		t.Errorf("cache holds %d trees, want its bound %d", n, maxParsed)
	}
	if _, err := Eval("1 +", NewEnv()); err == nil {
		t.Error("a source that fails to parse evaluated")
	}
}

// The cached trees are shared: one source evaluated from many goroutines
// at once, each with its own environment, gives every one the same value
// (run under -race).
func TestEvalConcurrent(t *testing.T) {
	const src = "gm3 = 8*pi*GBW*CL"
	env := NewEnv()
	env.Set("GBW", 1e6)
	env.Set("CL", 10e-12)
	want, err := Eval(src, env)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				env := NewEnv()
				env.Set("GBW", 1e6)
				env.Set("CL", 10e-12)
				if got, err := Eval(src, env); err != nil || got != want {
					t.Errorf("Eval = %g, %v; want %g", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestASTString(t *testing.T) {
	n, err := Parse("gm1 = sqrt(2*pi) + 1k || 2k")
	if err != nil {
		t.Fatal(err)
	}
	s := n.String()
	for _, want := range []string{"gm1 =", "sqrt", "||"} {
		if !strings.Contains(s, want) {
			t.Errorf("AST string %q missing %q", s, want)
		}
	}
}

// Property: parallel operator is commutative and bounded by min(a,b).
func TestParallelProperties(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Abs(a) + 1
		b = math.Abs(b) + 1
		if a > 1e100 || b > 1e100 || math.IsNaN(a) || math.IsNaN(b) {
			return true // a*b would overflow float64
		}
		env := NewEnv()
		env.Set("a", a)
		env.Set("b", b)
		ab, err1 := Eval("a||b", env)
		ba, err2 := Eval("b||a", env)
		if err1 != nil || err2 != nil {
			return false
		}
		return units.ApproxEqual(ab, ba, 1e-12) && ab <= math.Min(a, b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Eval of a formatted number round-trips.
func TestNumberLiteralRoundTrip(t *testing.T) {
	f := func(m float64) bool {
		v := math.Abs(m)
		if v < 1e-15 || v > 1e12 || math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		got, err := Eval(units.Format(v), NewEnv())
		if err != nil {
			return false
		}
		return units.ApproxEqual(got, v, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
