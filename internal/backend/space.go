package backend

import (
	"fmt"
	"math"

	"artisan/internal/topology"
)

// Space is the continuous parameter space of a fixed topology: one
// log-coordinate per positive stage transconductance and per connection
// element (gm/C/R as the connection type instantiates them), bounded
// ±4× around the topology's current values. The slot order matches the
// agent tuner's convention — stages first, then connections in
// declaration order — so every backend searches the same coordinates.
type Space struct {
	Lo, Hi []float64
	slots  []spaceSlot
	base   *topology.Topology
}

type spaceSlot struct {
	get func(tp *topology.Topology) float64
	set func(tp *topology.Topology, v float64)
}

// NewSpace builds the space around a topology's current values.
// Non-positive slots (the unused third stage of a two-stage skeleton)
// are skipped: they carry no value to perturb and their log-bounds
// would be degenerate.
func NewSpace(topo *topology.Topology) (*Space, error) {
	if topo == nil {
		return nil, fmt.Errorf("backend: nil topology")
	}
	s := &Space{base: topo.Clone()}
	add := func(cur float64,
		get func(tp *topology.Topology) float64,
		set func(tp *topology.Topology, v float64)) {
		if cur <= 0 {
			return
		}
		l := math.Log(cur)
		s.Lo = append(s.Lo, l-math.Log(4))
		s.Hi = append(s.Hi, l+math.Log(4))
		s.slots = append(s.slots, spaceSlot{get, set})
	}
	for i := range topo.Stages {
		i := i
		add(topo.Stages[i].Gm,
			func(tp *topology.Topology) float64 { return tp.Stages[i].Gm },
			func(tp *topology.Topology, v float64) { tp.Stages[i].Gm = v })
	}
	for i := range topo.Conns {
		i := i
		c := topo.Conns[i]
		if c.Type.HasGm() {
			add(c.Gm,
				func(tp *topology.Topology) float64 { return tp.Conns[i].Gm },
				func(tp *topology.Topology, v float64) { tp.Conns[i].Gm = v })
		}
		if c.Type.HasC() {
			add(c.C,
				func(tp *topology.Topology) float64 { return tp.Conns[i].C },
				func(tp *topology.Topology, v float64) { tp.Conns[i].C = v })
		}
		if c.Type.HasR() {
			add(c.R,
				func(tp *topology.Topology) float64 { return tp.Conns[i].R },
				func(tp *topology.Topology, v float64) { tp.Conns[i].R = v })
		}
	}
	if len(s.slots) == 0 {
		return nil, fmt.Errorf("backend: topology %q has no tunable parameters", topo.Name)
	}
	return s, nil
}

// Build instantiates a topology at a point of the space.
func (s *Space) Build(x []float64) *topology.Topology {
	tp := s.base.Clone()
	for i, sl := range s.slots {
		sl.set(tp, math.Exp(x[i]))
	}
	return tp
}

// PointOf projects a topology (same structure as the base) onto the
// space's coordinates. A non-positive value in a tracked slot is an
// error — the point would not be representable in log space.
func (s *Space) PointOf(tp *topology.Topology) ([]float64, error) {
	x := make([]float64, len(s.slots))
	for i, sl := range s.slots {
		v := sl.get(tp)
		if v <= 0 {
			return nil, fmt.Errorf("backend: non-positive value %g in slot %d", v, i)
		}
		x[i] = math.Log(v)
	}
	return x, nil
}

// Clamp pulls a point into the bounds, coordinate-wise, in place.
func (s *Space) Clamp(x []float64) {
	for i := range x {
		x[i] = math.Max(s.Lo[i], math.Min(s.Hi[i], x[i]))
	}
}
