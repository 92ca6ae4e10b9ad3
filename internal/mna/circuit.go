package mna

import (
	"fmt"
	"math"
	"slices"

	"artisan/internal/netlist"
)

// Circuit is a netlist compiled for MNA analysis: a node index, the
// frequency-independent conductance matrix G, the susceptance matrix C
// (A(s) = G + sC), and the excitation vector b. A circuit also owns the
// scratch its analyses solve in, made on first use, so a circuit,
// compiled or Restamped, is used by one goroutine at a time: goroutines
// that analyze one netlist concurrently compile it once each.
type Circuit struct {
	nl       *netlist.Netlist
	nodeIdx  map[string]int // non-ground nodes → 0..nn-1
	nodes    []string       // inverse of nodeIdx
	nn       int            // node unknowns
	nb       int            // branch-current unknowns (V and E elements)
	G, C     *Matrix
	b        []complex128
	branches map[string]int // source name → branch row

	// capSlots lists, sorted and without repeats, the data indices of G
	// and C that any capacitor stamp touches: every other entry of C is
	// +0 whatever the device values, so assembly computes G + sC only
	// here. Structural, hence shared with Restamped variants.
	capSlots []int

	// Analysis scratch, made on first use (see solve.go). Every
	// per-frequency operation — a sweep point, a determinant for the root
	// finder, a noise solve — is one assembly and factorization here, so
	// steady-state use allocates nothing.
	a   *Matrix // A(s); overwritten by the in-place LU
	lu  LU
	x   []complex128 // the solution SolveAt returns
	re  []float64    // Re A(s) for determinants at real s, factored by realDet
	rhs []complex128 // noise-analysis right-hand side

	rs   rootScratch  // eigenvalue root-find state, made by the first Poles or Zeros
	tran *tranScratch // transient engine state, made by the first Transient
}

// stampSink receives the MNA stamps of a device walk. Indices passed to G,
// C, and B are always valid (ground rows are filtered by the caller).
type stampSink interface {
	G(r, c int, v complex128)
	C(r, c int, v complex128)
	B(r int, v complex128)
}

// matrixSink accumulates stamps into dense matrices — the Compile/restamp
// backend. Given capacity in slots (Compile), it also appends the data
// index of every C stamp there.
type matrixSink struct {
	g, c  *Matrix
	b     []complex128
	slots []int
}

func (m *matrixSink) G(r, c int, v complex128) { m.g.Add(r, c, v) }
func (m *matrixSink) B(r int, v complex128)    { m.b[r] += v }
func (m *matrixSink) C(r, c int, v complex128) {
	m.c.Add(r, c, v)
	if cap(m.slots) > 0 {
		m.slots = append(m.slots, r*m.c.N+c)
	}
}

// patternSink records the structural (row, col) positions of the A-matrix
// stamps, ignoring values and the excitation.
type patternSink struct {
	rows, cols []int
}

func (p *patternSink) entry(r, c int) {
	p.rows = append(p.rows, r)
	p.cols = append(p.cols, c)
}
func (p *patternSink) G(r, c int, v complex128) { p.entry(r, c) }
func (p *patternSink) C(r, c int, v complex128) { p.entry(r, c) }
func (p *patternSink) B(r int, v complex128)    {}

// stampInto walks the devices once and emits every stamp to the sink.
// scale, when non-nil, multiplies device i's value by scale[i] — the
// Monte-Carlo / corner re-stamping hook. It is the single source of truth
// for the MNA stamps: Compile, restamp, and the sparsity pattern all run
// through it.
func (c *Circuit) stampInto(scale []float64, sink stampSink) error {
	idx := func(node string) int {
		if node == netlist.Ground {
			return -1
		}
		return c.nodeIdx[node]
	}
	stamp2 := func(set func(r, cl int, v complex128), a, bn int, g complex128) {
		if a >= 0 {
			set(a, a, g)
		}
		if bn >= 0 {
			set(bn, bn, g)
		}
		if a >= 0 && bn >= 0 {
			set(a, bn, -g)
			set(bn, a, -g)
		}
	}
	stampVCCS := func(op, om, cp, cm int, gm complex128) {
		add := func(r, cl int, v complex128) {
			if r >= 0 && cl >= 0 {
				sink.G(r, cl, v)
			}
		}
		add(op, cp, gm)
		add(op, cm, -gm)
		add(om, cp, -gm)
		add(om, cm, gm)
	}

	for di, d := range c.nl.Devices {
		val := d.Value
		if scale != nil {
			val *= scale[di]
		}
		switch d.Kind {
		case netlist.Resistor:
			stamp2(sink.G, idx(d.Nodes[0]), idx(d.Nodes[1]), complex(1/val, 0))
		case netlist.Capacitor:
			stamp2(sink.C, idx(d.Nodes[0]), idx(d.Nodes[1]), complex(val, 0))
		case netlist.VCCS:
			stampVCCS(idx(d.Nodes[0]), idx(d.Nodes[1]), idx(d.Nodes[2]), idx(d.Nodes[3]), complex(val, 0))
		case netlist.VSource:
			k := c.branches[d.Name]
			p, m := idx(d.Nodes[0]), idx(d.Nodes[1])
			if p >= 0 {
				sink.G(p, k, 1)
				sink.G(k, p, 1)
			}
			if m >= 0 {
				sink.G(m, k, -1)
				sink.G(k, m, -1)
			}
			sink.B(k, complex(val, 0))
		case netlist.VCVS:
			k := c.branches[d.Name]
			p, m := idx(d.Nodes[0]), idx(d.Nodes[1])
			cp, cm := idx(d.Nodes[2]), idx(d.Nodes[3])
			if p >= 0 {
				sink.G(p, k, 1)
				sink.G(k, p, 1)
			}
			if m >= 0 {
				sink.G(m, k, -1)
				sink.G(k, m, -1)
			}
			if cp >= 0 {
				sink.G(k, cp, -complex(val, 0))
			}
			if cm >= 0 {
				sink.G(k, cm, complex(val, 0))
			}
		case netlist.ISource:
			p, m := idx(d.Nodes[0]), idx(d.Nodes[1])
			// Current val flows from node p through the source into node m:
			// it leaves the external circuit at p.
			if p >= 0 {
				sink.B(p, -complex(val, 0))
			}
			if m >= 0 {
				sink.B(m, complex(val, 0))
			}
		default:
			return fmt.Errorf("mna: unsupported device kind %v", d.Kind)
		}
	}
	return nil
}

// Compile validates and compiles a netlist. Exactly the devices supported
// by the netlist package are accepted.
func Compile(nl *netlist.Netlist) (*Circuit, error) {
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("mna: %w", err)
	}
	c := &Circuit{nl: nl, nodeIdx: map[string]int{}, branches: map[string]int{}}
	for _, nd := range nl.NonGroundNodes() {
		c.nodeIdx[nd] = c.nn
		c.nodes = append(c.nodes, nd)
		c.nn++
	}
	for _, d := range nl.Devices {
		if d.Kind == netlist.VSource || d.Kind == netlist.VCVS {
			c.branches[d.Name] = c.nn + c.nb
			c.nb++
		}
	}
	n := c.nn + c.nb
	if n == 0 {
		return nil, fmt.Errorf("mna: empty circuit")
	}
	c.G = NewMatrix(n)
	c.C = NewMatrix(n)
	c.b = make([]complex128, n)
	caps := 0
	for _, d := range nl.Devices {
		if d.Kind == netlist.Capacitor {
			caps++
		}
	}
	// A capacitor stamps at most four entries: one allocation holds the
	// slot list, sorted and compacted in place.
	sink := &matrixSink{g: c.G, c: c.C, b: c.b, slots: make([]int, 0, 4*caps)}
	if err := c.stampInto(nil, sink); err != nil {
		return nil, err
	}
	slices.Sort(sink.slots)
	c.capSlots = slices.Compact(sink.slots)
	return c, nil
}

// Restamped re-stamps the circuit's topology with per-device value scale
// factors (scale[i] multiplies nl.Devices[i].Value) into a reusable target
// circuit, allocating one when into is nil. The result shares the node
// index, branch map and capacitor slots with the base — only matrix
// values are rebuilt — which is what makes Monte-Carlo and corner
// sampling cheap: the symbolic work survives across samples. The base is
// only read, so goroutines may restamp one base into targets of their
// own. Restamping into a target overwrites its values, so a slice its
// SolveAt returned is stale afterwards. Its netlist pointer still
// reports the base (unscaled) device values.
func (c *Circuit) Restamped(scale []float64, into *Circuit) (*Circuit, error) {
	if len(scale) != len(c.nl.Devices) {
		return nil, fmt.Errorf("mna: restamp scale length %d, want %d devices", len(scale), len(c.nl.Devices))
	}
	if into == nil {
		n := c.Size()
		into = &Circuit{
			nl: c.nl, nodeIdx: c.nodeIdx, nodes: c.nodes, nn: c.nn, nb: c.nb,
			branches: c.branches, capSlots: c.capSlots,
			G: NewMatrix(n), C: NewMatrix(n), b: make([]complex128, n),
		}
	}
	for i := range into.G.data {
		into.G.data[i] = 0
		into.C.data[i] = 0
	}
	for i := range into.b {
		into.b[i] = 0
	}
	if err := into.stampInto(scale, &matrixSink{g: into.G, c: into.C, b: into.b}); err != nil {
		return nil, err
	}
	return into, nil
}

// pattern builds the structural CSC pattern of A = G + sC (union of the
// G and C stamps) for the transient engine.
func (c *Circuit) pattern() *Pattern {
	ps := &patternSink{}
	// stampInto cannot fail here: Compile already walked these devices.
	_ = c.stampInto(nil, ps)
	// Diagonal entries keep the pattern factorizable even when a node's
	// only stamps are off-diagonal couplings that later cancel.
	for i := 0; i < c.Size(); i++ {
		ps.entry(i, i)
	}
	return NewPattern(c.Size(), ps.rows, ps.cols)
}

// Size returns the total number of MNA unknowns.
func (c *Circuit) Size() int { return c.nn + c.nb }

// NodeNames returns non-ground node names in matrix order.
func (c *Circuit) NodeNames() []string { return append([]string(nil), c.nodes...) }

// NodeIndex returns the matrix index of a node name.
func (c *Circuit) NodeIndex(node string) (int, error) {
	if node == netlist.Ground {
		return -1, fmt.Errorf("mna: ground node has no index")
	}
	i, ok := c.nodeIdx[node]
	if !ok {
		return -1, fmt.Errorf("mna: unknown node %q", node)
	}
	return i, nil
}

// VoltageAt solves at s and returns the voltage of one node.
func (c *Circuit) VoltageAt(node string, s complex128) (complex128, error) {
	if node == netlist.Ground {
		return 0, nil
	}
	i, err := c.NodeIndex(node)
	if err != nil {
		return 0, err
	}
	x, err := c.SolveAt(s)
	if err != nil {
		return 0, err
	}
	return x[i], nil
}

// Omega converts a frequency in Hz to the Laplace variable jω.
func Omega(freqHz float64) complex128 {
	return complex(0, 2*math.Pi*freqHz)
}
