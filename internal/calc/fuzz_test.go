package calc

import (
	"math"
	"testing"
)

// FuzzEval: arbitrary input must either error or produce a value without
// panicking. Eval through the parse cache must answer exactly as a fresh
// Parse and evaluation of the same source, on the first call (which may
// store the tree) and on the second (which may read it), whether or not
// the cache has reached its bound; and an accepted expression
// re-evaluates identically (purity).
func FuzzEval(f *testing.F) {
	f.Add("1+2*3")
	f.Add("gm3 = 8*pi*GBW*CL")
	f.Add("sqrt(abs(-4)) ^ 2")
	f.Add("1k || 2k || 3k")
	f.Add("par(1,2,3)")
	f.Add("((((")
	f.Add("-1e308*10")
	f.Add("x = y = z")
	f.Add("1/0")
	f.Add("Ro3 = A3/gm3")
	f.Fuzz(func(t *testing.T, src string) {
		newEnv := func() *Env {
			env := NewEnv()
			env.Set("GBW", 1e6)
			env.Set("CL", 1e-11)
			return env
		}
		var want float64
		var wantErr error
		n, wantErr := Parse(src)
		if wantErr == nil {
			want, wantErr = n.eval(newEnv())
		}
		for call := 1; call <= 2; call++ {
			got, err := Eval(src, newEnv())
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("call %d: Eval(%q) error %v, fresh parse gives %v", call, src, err, wantErr)
			}
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("call %d: Eval(%q) = %g, fresh parse gives %g", call, src, got, want)
			}
		}
	})
}
