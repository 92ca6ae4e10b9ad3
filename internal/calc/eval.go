package calc

import (
	"fmt"
	"math"
	"sync"
)

// Env holds variable bindings for evaluation. The zero value is unusable;
// create one with NewEnv, which preloads mathematical constants.
type Env struct {
	vars map[string]float64
}

// envSize is the size a design recipe's environment reaches, so Set
// does not regrow the map along the way: spec values, knobs and one
// binding per formula come to about 40 names (33 in the library
// recipes before knobs).
const envSize = 48

// NewEnv returns an environment with pi and e bound.
func NewEnv() *Env {
	vars := make(map[string]float64, envSize)
	vars["pi"], vars["e"] = math.Pi, math.E
	return &Env{vars: vars}
}

// Set binds name to value.
func (e *Env) Set(name string, v float64) { e.vars[name] = v }

// Get returns the value bound to name.
func (e *Env) Get(name string) (float64, bool) {
	v, ok := e.vars[name]
	return v, ok
}

// Eval parses and evaluates src in env. Assignments ("gm1 = 2*pi*GBW*Cm1")
// bind the result in env and also return it. Each source is parsed once
// per process (see parsed); evaluation runs on every call.
func Eval(src string, env *Env) (float64, error) {
	n, err := parseCached(src)
	if err != nil {
		return 0, err
	}
	return n.eval(env)
}

// maxParsed bounds the parse cache: calc is a library, and callers may
// evaluate any number of distinct sources.
const maxParsed = 256

// parsed memoizes Parse per source. The design recipes evaluate a few
// dozen distinct formulas on every run, and lexing and parsing them cost
// more than evaluating. The first maxParsed sources that parse are
// stored; later ones are parsed without storing, and sources that fail
// to parse are never stored. Trees are immutable, so callers share them.
var parsed struct {
	mu sync.Mutex
	m  map[string]Node
}

// parseCached returns Parse(src), from the cache when it holds src.
func parseCached(src string) (Node, error) {
	parsed.mu.Lock()
	n, ok := parsed.m[src]
	parsed.mu.Unlock()
	if ok {
		return n, nil
	}
	n, err := Parse(src)
	if err != nil {
		return nil, err
	}
	parsed.mu.Lock()
	if parsed.m == nil {
		parsed.m = make(map[string]Node, maxParsed)
	}
	if len(parsed.m) < maxParsed {
		parsed.m[src] = n
	}
	parsed.mu.Unlock()
	return n, nil
}

func (n numNode) eval(env *Env) (float64, error) { return n.v, nil }

func (n varNode) eval(env *Env) (float64, error) {
	if v, ok := env.Get(n.name); ok {
		return v, nil
	}
	return 0, fmt.Errorf("calc: undefined variable %q", n.name)
}

func (n unaryNode) eval(env *Env) (float64, error) {
	v, err := n.child.eval(env)
	if err != nil {
		return 0, err
	}
	return -v, nil
}

func (n binNode) eval(env *Env) (float64, error) {
	l, err := n.left.eval(env)
	if err != nil {
		return 0, err
	}
	r, err := n.right.eval(env)
	if err != nil {
		return 0, err
	}
	switch n.op {
	case tokPlus:
		return l + r, nil
	case tokMinus:
		return l - r, nil
	case tokStar:
		return l * r, nil
	case tokSlash:
		if r == 0 {
			return 0, fmt.Errorf("calc: division by zero in %s", n)
		}
		return l / r, nil
	case tokCaret:
		return math.Pow(l, r), nil
	case tokParallel:
		if l+r == 0 {
			return 0, fmt.Errorf("calc: degenerate parallel combination in %s", n)
		}
		return l * r / (l + r), nil
	}
	return 0, fmt.Errorf("calc: unknown operator in %s", n)
}

var functions = map[string]struct {
	arity int
	fn    func(args []float64) (float64, error)
}{
	"sqrt": {1, func(a []float64) (float64, error) {
		if a[0] < 0 {
			return 0, fmt.Errorf("calc: sqrt of negative %g", a[0])
		}
		return math.Sqrt(a[0]), nil
	}},
	"cbrt":  {1, func(a []float64) (float64, error) { return math.Cbrt(a[0]), nil }},
	"abs":   {1, func(a []float64) (float64, error) { return math.Abs(a[0]), nil }},
	"exp":   {1, func(a []float64) (float64, error) { return math.Exp(a[0]), nil }},
	"ln":    {1, func(a []float64) (float64, error) { return logChecked(math.Log, a[0]) }},
	"log10": {1, func(a []float64) (float64, error) { return logChecked(math.Log10, a[0]) }},
	"log2":  {1, func(a []float64) (float64, error) { return logChecked(math.Log2, a[0]) }},
	"sin":   {1, func(a []float64) (float64, error) { return math.Sin(a[0]), nil }},
	"cos":   {1, func(a []float64) (float64, error) { return math.Cos(a[0]), nil }},
	"tan":   {1, func(a []float64) (float64, error) { return math.Tan(a[0]), nil }},
	"atan":  {1, func(a []float64) (float64, error) { return math.Atan(a[0]), nil }},
	"atan2": {2, func(a []float64) (float64, error) { return math.Atan2(a[0], a[1]), nil }},
	"min":   {2, func(a []float64) (float64, error) { return math.Min(a[0], a[1]), nil }},
	"max":   {2, func(a []float64) (float64, error) { return math.Max(a[0], a[1]), nil }},
	"pow":   {2, func(a []float64) (float64, error) { return math.Pow(a[0], a[1]), nil }},
	// db/undb: decibel conversions for gain work.
	"db": {1, func(a []float64) (float64, error) {
		return logChecked(func(x float64) float64 { return 20 * math.Log10(x) }, a[0])
	}},
	"undb": {1, func(a []float64) (float64, error) { return math.Pow(10, a[0]/20), nil }},
	// par: n-ary parallel combination.
	"par": {-1, func(a []float64) (float64, error) {
		if len(a) == 0 {
			return 0, fmt.Errorf("calc: par() needs at least one argument")
		}
		inv := 0.0
		for _, v := range a {
			if v == 0 {
				return 0, fmt.Errorf("calc: par() with zero branch")
			}
			inv += 1 / v
		}
		return 1 / inv, nil
	}},
}

func logChecked(f func(float64) float64, x float64) (float64, error) {
	if x <= 0 {
		return 0, fmt.Errorf("calc: logarithm of non-positive %g", x)
	}
	return f(x), nil
}

func (n callNode) eval(env *Env) (float64, error) {
	f, ok := functions[n.name]
	if !ok {
		return 0, fmt.Errorf("calc: unknown function %q", n.name)
	}
	if f.arity >= 0 && len(n.args) != f.arity {
		return 0, fmt.Errorf("calc: %s expects %d argument(s), got %d", n.name, f.arity, len(n.args))
	}
	args := make([]float64, len(n.args))
	for i, a := range n.args {
		v, err := a.eval(env)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}
	return f.fn(args)
}

func (n assignNode) eval(env *Env) (float64, error) {
	v, err := n.expr.eval(env)
	if err != nil {
		return 0, err
	}
	env.Set(n.name, v)
	return v, nil
}
