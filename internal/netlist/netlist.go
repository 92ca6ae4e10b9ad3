// Package netlist models behavioral-level analog circuits as SPICE-style
// netlists: a list of devices connecting named nodes. It is the de facto
// circuit representation the paper builds on (§3.2, Fig. 3): linear devices
// (R, C), controlled sources (VCCS "G" elements for transconductance
// stages, VCVS "E" elements), and independent sources (V, I).
//
// The package provides construction helpers, validation, graph queries,
// and a parser/writer for a SPICE-like text format, so netlists round-trip
// through text exactly as the Artisan-LLM consumes and emits them.
package netlist

import (
	"fmt"
	"sort"
	"strings"

	"artisan/internal/units"
)

// Ground is the reference node name.
const Ground = "0"

// DeviceKind enumerates supported element types.
type DeviceKind int

const (
	// Resistor is a two-terminal linear resistor (value in ohms).
	Resistor DeviceKind = iota
	// Capacitor is a two-terminal linear capacitor (value in farads).
	Capacitor
	// VCCS is a voltage-controlled current source (G element, value in
	// siemens): nodes are [out+, out-, ctrl+, ctrl-]; a positive control
	// voltage pushes current gm·v from out+ to out- through the source,
	// i.e. current gm·v flows out of the out+ terminal into the circuit?
	// SPICE convention: current flows from out+ terminal through the
	// source to out-, so I(out+→out-) = gm·(v(ctrl+)-v(ctrl-)).
	VCCS
	// VCVS is a voltage-controlled voltage source (E element, value is
	// the dimensionless gain): nodes are [out+, out-, ctrl+, ctrl-].
	VCVS
	// VSource is an independent voltage source (value in volts, used as
	// the AC excitation): nodes are [n+, n-].
	VSource
	// ISource is an independent current source (value in amperes):
	// nodes are [n+, n-], current flows from n+ through the source to n-.
	ISource
)

// String returns the SPICE letter for the kind.
func (k DeviceKind) String() string {
	switch k {
	case Resistor:
		return "R"
	case Capacitor:
		return "C"
	case VCCS:
		return "G"
	case VCVS:
		return "E"
	case VSource:
		return "V"
	case ISource:
		return "I"
	}
	return "?"
}

// TerminalCount returns how many nodes a device of this kind connects.
func (k DeviceKind) TerminalCount() int {
	switch k {
	case VCCS, VCVS:
		return 4
	default:
		return 2
	}
}

// Device is one circuit element.
type Device struct {
	Kind  DeviceKind
	Name  string   // full instance name, e.g. "Cm1", "Rz", "Gm2"
	Nodes []string // length Kind.TerminalCount()
	Value float64  // SI units per kind
}

// Line renders the device as one SPICE netlist line.
func (d Device) Line() string {
	return fmt.Sprintf("%s %s %s", d.Name, strings.Join(d.Nodes, " "), units.Format(d.Value))
}

// Netlist is an ordered list of devices with a title.
type Netlist struct {
	Title   string
	Devices []Device
}

// New creates an empty netlist with the given title.
func New(title string) *Netlist { return &Netlist{Title: title} }

// Clone returns a deep copy.
func (n *Netlist) Clone() *Netlist {
	out := &Netlist{Title: n.Title, Devices: make([]Device, len(n.Devices))}
	for i, d := range n.Devices {
		nd := d
		nd.Nodes = append([]string(nil), d.Nodes...)
		out.Devices[i] = nd
	}
	return out
}

func (n *Netlist) add(kind DeviceKind, name string, value float64, nodes ...string) *Netlist {
	n.Devices = append(n.Devices, Device{Kind: kind, Name: name, Nodes: nodes, Value: value})
	return n
}

// AddR appends a resistor between a and b.
func (n *Netlist) AddR(name, a, b string, ohms float64) *Netlist {
	return n.add(Resistor, name, ohms, a, b)
}

// AddC appends a capacitor between a and b.
func (n *Netlist) AddC(name, a, b string, farads float64) *Netlist {
	return n.add(Capacitor, name, farads, a, b)
}

// AddG appends a VCCS: I(outP→outM) = gm·(V(ctrlP)−V(ctrlM)).
func (n *Netlist) AddG(name, outP, outM, ctrlP, ctrlM string, gm float64) *Netlist {
	return n.add(VCCS, name, gm, outP, outM, ctrlP, ctrlM)
}

// AddE appends a VCVS: V(outP)−V(outM) = gain·(V(ctrlP)−V(ctrlM)).
func (n *Netlist) AddE(name, outP, outM, ctrlP, ctrlM string, gain float64) *Netlist {
	return n.add(VCVS, name, gain, outP, outM, ctrlP, ctrlM)
}

// AddV appends an independent voltage source.
func (n *Netlist) AddV(name, p, m string, volts float64) *Netlist {
	return n.add(VSource, name, volts, p, m)
}

// AddI appends an independent current source.
func (n *Netlist) AddI(name, p, m string, amps float64) *Netlist {
	return n.add(ISource, name, amps, p, m)
}

// Find returns the device with the given name, or nil.
func (n *Netlist) Find(name string) *Device {
	for i := range n.Devices {
		if n.Devices[i].Name == name {
			return &n.Devices[i]
		}
	}
	return nil
}

// Remove deletes the named device; it reports whether it was present.
func (n *Netlist) Remove(name string) bool {
	for i := range n.Devices {
		if n.Devices[i].Name == name {
			n.Devices = append(n.Devices[:i], n.Devices[i+1:]...)
			return true
		}
	}
	return false
}

// SetValue updates the named device's value; it reports success.
func (n *Netlist) SetValue(name string, v float64) bool {
	if d := n.Find(name); d != nil {
		d.Value = v
		return true
	}
	return false
}

// Nodes returns the sorted set of node names, always including ground if
// any device touches it.
func (n *Netlist) Nodes() []string {
	seen := map[string]bool{}
	for _, d := range n.Devices {
		for _, nd := range d.Nodes {
			seen[nd] = true
		}
	}
	out := make([]string, 0, len(seen))
	for nd := range seen {
		out = append(out, nd)
	}
	sort.Strings(out)
	return out
}

// NonGroundNodes returns sorted nodes excluding ground.
func (n *Netlist) NonGroundNodes() []string {
	all := n.Nodes()
	out := all[:0]
	for _, nd := range all {
		if nd != Ground {
			out = append(out, nd)
		}
	}
	return out
}

// CountKind returns how many devices of the given kind the netlist holds.
func (n *Netlist) CountKind(k DeviceKind) int {
	c := 0
	for _, d := range n.Devices {
		if d.Kind == k {
			c++
		}
	}
	return c
}

// String renders the netlist in SPICE format with a trailing ".end".
func (n *Netlist) String() string {
	var b strings.Builder
	if n.Title != "" {
		fmt.Fprintf(&b, "* %s\n", n.Title)
	}
	for _, d := range n.Devices {
		b.WriteString(d.Line())
		b.WriteByte('\n')
	}
	b.WriteString(".end\n")
	return b.String()
}

// Validate checks structural sanity: unique names, correct terminal counts,
// kind/name letter agreement, positive values for passives, no device
// shorted to itself on its output port, and DC connectivity of every node
// to ground (treating every device port pair as an edge — capacitors count,
// since an AC analysis still constrains such nodes).
func (n *Netlist) Validate() error {
	names := map[string]bool{}
	for _, d := range n.Devices {
		if d.Name == "" {
			return fmt.Errorf("netlist: device with empty name")
		}
		if names[d.Name] {
			return fmt.Errorf("netlist: duplicate device name %q", d.Name)
		}
		names[d.Name] = true
		if !strings.HasPrefix(strings.ToUpper(d.Name), d.Kind.String()) {
			return fmt.Errorf("netlist: device %q must start with letter %s", d.Name, d.Kind)
		}
		if len(d.Nodes) != d.Kind.TerminalCount() {
			return fmt.Errorf("netlist: device %q has %d nodes, want %d", d.Name, len(d.Nodes), d.Kind.TerminalCount())
		}
		for _, nd := range d.Nodes {
			if nd == "" {
				return fmt.Errorf("netlist: device %q has empty node name", d.Name)
			}
		}
		switch d.Kind {
		case Resistor, Capacitor:
			if d.Value <= 0 {
				return fmt.Errorf("netlist: %s %q must have positive value, got %g", d.Kind, d.Name, d.Value)
			}
			if d.Nodes[0] == d.Nodes[1] {
				return fmt.Errorf("netlist: %s %q connects node %q to itself", d.Kind, d.Name, d.Nodes[0])
			}
		case VCCS, VCVS:
			if d.Nodes[0] == d.Nodes[1] {
				return fmt.Errorf("netlist: %s %q output is shorted", d.Kind, d.Name)
			}
		}
	}
	// Connectivity to ground.
	if len(n.Devices) == 0 {
		return nil
	}
	adj := map[string][]string{}
	link := func(a, b string) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for _, d := range n.Devices {
		switch d.Kind {
		case VCCS, VCVS:
			link(d.Nodes[0], d.Nodes[1])
			// control port is high-impedance: not an edge
		default:
			link(d.Nodes[0], d.Nodes[1])
		}
	}
	reach := map[string]bool{Ground: true}
	stack := []string{Ground}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !reach[w] {
				reach[w] = true
				stack = append(stack, w)
			}
		}
	}
	for _, nd := range n.Nodes() {
		if !reach[nd] {
			return fmt.Errorf("netlist: node %q has no conducting path to ground", nd)
		}
	}
	return nil
}
