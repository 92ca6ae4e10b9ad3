package topology

import (
	"fmt"
	"math/rand"

	"artisan/internal/measure"
	"artisan/internal/netlist"
)

// Generator draws constrained random topologies for the generative
// benchmark harness: validity-checked signal-path graphs of 2–4 stages
// with arbitrary compensation networks. It differs from Sampler in two
// ways: the skeleton depth itself is sampled (Sampler is pinned to the
// paper's three-stage space so the Table 3 baselines stay comparable),
// and every emitted topology is *guaranteed* to elaborate through the
// MNA path and produce a finite AC analysis — candidates that
// stamp but do not measure are rejected and redrawn. Generation is a
// pure function of the seed.
type Generator struct {
	rng *rand.Rand
	s   *Sampler
	env Env
}

// NewGenerator returns a deterministic generator for the given seed,
// measuring candidates in the default environment.
func NewGenerator(seed int64) *Generator {
	return NewGeneratorEnv(seed, DefaultEnv())
}

// NewGeneratorEnv returns a generator whose simulatability guarantee is
// checked in the given environment.
func NewGeneratorEnv(seed int64, env Env) *Generator {
	return &Generator{
		rng: rand.New(rand.NewSource(seed)),
		s:   NewSampler(seed ^ 0x67656e), // decorrelated value stream
		env: env,
	}
}

// genAttempts bounds the redraw loop. Random candidates fail only when
// the AC analysis degenerates (e.g. a feedback network nulls the DC
// response), which is rare; the bound exists so a pathological seed
// degrades into an error instead of an infinite loop.
const genAttempts = 64

// Topology draws one topology: a 2–4 stage skeleton, one guaranteed
// Miller-family compensation over the output stage, and 0–4 additional
// connections at distinct legal positions. The returned topology always
// passes Validate, elaborates into a netlist that passes
// netlist.Validate, and yields a finite measure.Analyze report.
func (g *Generator) Topology() (*Topology, error) {
	var lastErr error
	for attempt := 0; attempt < genAttempts; attempt++ {
		t := g.draw()
		if err := t.Validate(); err != nil {
			lastErr = err
			continue
		}
		nl, err := t.Elaborate(g.env)
		if err != nil {
			lastErr = err
			continue
		}
		if _, err := measure.Analyze(nl, "out"); err != nil {
			lastErr = fmt.Errorf("topology: generated candidate unmeasurable: %w", err)
			continue
		}
		return t, nil
	}
	return nil, fmt.Errorf("topology: generator exhausted %d attempts: %w", genAttempts, lastErr)
}

// Netlist draws one topology and returns it with its elaborated netlist.
func (g *Generator) Netlist() (*Topology, *netlist.Netlist, error) {
	t, err := g.Topology()
	if err != nil {
		return nil, nil, err
	}
	nl, err := t.Elaborate(g.env)
	if err != nil {
		return nil, nil, err
	}
	return t, nl, nil
}

// millerTypes are the compensation types the generator guarantees at the
// outer loop — every one couples the first internal node to the output
// with a capacitive (or buffered/cascoded/damped capacitive) path, which
// is what keeps random skeletons overwhelmingly stable and measurable.
var millerTypes = []ConnType{
	ConnC, ConnSeriesRC, ConnGmNParallelC, ConnBufC, ConnCascodeC, ConnQFCN,
}

// draw assembles one unchecked candidate.
func (g *Generator) draw() *Topology {
	n := MinStageCount + g.rng.Intn(MaxStageCount-MinStageCount+1)
	t := &Topology{
		Name:     fmt.Sprintf("gen%d", n),
		TwoStage: n == 2,
		Stages:   make([]Stage, n),
	}
	for i := range t.Stages {
		t.Stages[i] = Stage{Gm: g.s.RandomGm(), A0: DefaultA0(i)}
	}

	// Guaranteed outer compensation: n1 → out.
	outer := Connection{Pos: Position{"n1", "out"}, Type: millerTypes[g.rng.Intn(len(millerTypes))]}
	g.s.fill(&outer)
	t.SetConn(outer)

	// Extra connections at distinct free legal positions.
	extra := g.rng.Intn(5)
	positions := LegalPositionsN(n)
	for k := 0; k < extra; k++ {
		var free []Position
		for _, p := range positions {
			if t.ConnAt(p) == nil {
				free = append(free, p)
			}
		}
		if len(free) == 0 {
			break
		}
		p := free[g.rng.Intn(len(free))]
		types := LegalTypesAt(p)
		ct := types[g.rng.Intn(len(types))]
		if ct == ConnNone {
			continue
		}
		c := Connection{Pos: p, Type: ct}
		g.s.fill(&c)
		t.SetConn(c)
	}
	return t
}
