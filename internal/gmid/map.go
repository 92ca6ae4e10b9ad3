package gmid

import (
	"fmt"
	"strings"

	"artisan/internal/topology"
	"artisan/internal/units"
)

// StagePlan sets the per-role transconductance efficiencies used by the
// mapping. Input pairs run closer to weak inversion (better matching and
// efficiency); output drivers run in moderate inversion for speed.
type StagePlan struct {
	InputGmID  float64
	MirrorGmID float64
	CSGmID     float64
	AuxGmID    float64
}

// DefaultStagePlan mirrors the power model of internal/measure.
func DefaultStagePlan() StagePlan {
	return StagePlan{InputGmID: 20, MirrorGmID: 12, CSGmID: 16, AuxGmID: 16}
}

// Netlist is the transistor-level result of mapping a topology: sized
// devices, passives carried over, and bias currents.
type Netlist struct {
	Title    string
	VDD      float64
	Devices  []Device
	Passives []string // rendered passive lines
	ITotal   float64  // A
}

// String renders the SPICE-style transistor netlist (Fig. 6(d) analogue).
func (n *Netlist) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "* %s (transistor level via gm/Id mapping)\n", n.Title)
	fmt.Fprintf(&b, "* VDD = %gV, total bias current = %sA\n", n.VDD, units.Format(n.ITotal))
	for _, d := range n.Devices {
		b.WriteString(d.Line(nodesFor(d)))
		b.WriteByte('\n')
	}
	for _, p := range n.Passives {
		b.WriteString(p)
		b.WriteByte('\n')
	}
	b.WriteString(".end\n")
	return b.String()
}

// nodesFor synthesises the connection string for a device from its role.
// The node naming follows the canonical three-stage schematic: the mapping
// is structural documentation, not a simulation input (the behavioral
// netlist is what gets simulated, as in the paper).
func nodesFor(d Device) string {
	switch {
	case strings.Contains(d.Role, "input pair"):
		if strings.HasSuffix(d.Name, "a") {
			return "n1m inp tail 0"
		}
		return "n1 inn tail 0"
	case strings.Contains(d.Role, "mirror"):
		if strings.HasSuffix(d.Name, "a") {
			return "n1m n1m vdd vdd"
		}
		return "n1 n1m vdd vdd"
	case strings.Contains(d.Role, "tail"):
		return "tail vb1 0 0"
	case strings.Contains(d.Role, "second stage"):
		return "n2 n1 vdd vdd"
	case strings.Contains(d.Role, "third stage"):
		return "out n2 0 0"
	case strings.Contains(d.Role, "load"):
		return "n2 vb2 0 0"
	case strings.Contains(d.Role, "output load"):
		return "out vb3 vdd vdd"
	default:
		return "x" + d.Name + " 0 0 0"
	}
}

// Map lowers a behavioral topology to transistor level: the input stage
// becomes a current-mirror differential amplifier, the remaining skeleton
// stages become common-source amplifiers (paper §2.2), and every auxiliary
// transconductor in the compensation network becomes a sized device.
func Map(t Tech, plan StagePlan, topo *topology.Topology, vdd float64) (*Netlist, error) {
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("gmid: %w", err)
	}
	out := &Netlist{Title: topo.Name, VDD: vdd}

	add := func(d Device, err error) error {
		if err != nil {
			return err
		}
		out.Devices = append(out.Devices, d)
		out.ITotal += d.Id
		return nil
	}

	// Input stage: differential pair (two devices at gm1 each, sharing a
	// tail of 2·Id1) + current-mirror load at Id1 each.
	gm1 := topo.Stages[0].Gm
	da, err := t.Size("M1a", gm1, plan.InputGmID, 0, false, "input pair (+)")
	if err := add(da, err); err != nil {
		return nil, err
	}
	db, err := t.Size("M1b", gm1, plan.InputGmID, 0, false, "input pair (-)")
	if err := add(db, err); err != nil {
		return nil, err
	}
	id1 := gm1 / plan.InputGmID
	mirGm := id1 * plan.MirrorGmID
	ma, err := t.Size("M2a", mirGm, plan.MirrorGmID, 0, true, "mirror load (diode)")
	if err := add(ma, err); err != nil {
		return nil, err
	}
	mb, err := t.Size("M2b", mirGm, plan.MirrorGmID, 0, true, "mirror load")
	if err := add(mb, err); err != nil {
		return nil, err
	}
	tailGm := 2 * id1 * plan.MirrorGmID
	mt, err := t.Size("M0", tailGm, plan.MirrorGmID, 0, false, "tail source")
	// The tail reuses the pair current; don't double count.
	if err != nil {
		return nil, err
	}
	mt.Id = 0
	out.Devices = append(out.Devices, mt)

	if topo.NumStages() == 2 {
		// Two-stage skeleton: one common-source output stage.
		gm2 := topo.Stages[1].Gm
		m3, err := t.Size("M3", gm2, plan.CSGmID, 0, false, "third stage CS (output)")
		if err := add(m3, err); err != nil {
			return nil, err
		}
		l3, err := t.Size("M3L", gm2*0.8, plan.CSGmID, 0, true, "output load source")
		if err != nil {
			return nil, err
		}
		l3.Id = 0
		out.Devices = append(out.Devices, l3)
	} else {
		// Second stage (common source, PMOS) with NMOS current load;
		// third stage (common source, NMOS) with PMOS current load.
		gm2 := topo.Stages[1].Gm
		m3, err := t.Size("M3", gm2, plan.CSGmID, 0, true, "second stage CS")
		if err := add(m3, err); err != nil {
			return nil, err
		}
		l3, err := t.Size("M3L", gm2*0.8, plan.CSGmID, 0, false, "second stage load")
		if err != nil {
			return nil, err
		}
		l3.Id = 0
		out.Devices = append(out.Devices, l3)

		gm3 := topo.Stages[2].Gm
		m4, err := t.Size("M4", gm3, plan.CSGmID, 0, false, "third stage CS")
		if err := add(m4, err); err != nil {
			return nil, err
		}
		l4, err := t.Size("M4L", gm3*0.8, plan.CSGmID, 0, true, "output load source")
		if err != nil {
			return nil, err
		}
		l4.Id = 0
		out.Devices = append(out.Devices, l4)
	}

	// Auxiliary transconductors and passives from the connections.
	auxIdx := 5
	for i, c := range topo.Conns {
		if c.Type == topology.ConnNone {
			continue
		}
		if c.Type.HasGm() {
			name := fmt.Sprintf("M%d", auxIdx)
			auxIdx++
			role := fmt.Sprintf("aux %s at %s", c.Type, c.Pos)
			d, err := t.Size(name, c.Gm, plan.AuxGmID, 0, false, role)
			if err := add(d, err); err != nil {
				return nil, err
			}
		}
		if c.Type.HasC() {
			out.Passives = append(out.Passives,
				fmt.Sprintf("Cc%d %s %s %s", i, c.Pos.From, c.Pos.To, units.Format(c.C)))
		}
		if c.Type.HasR() {
			out.Passives = append(out.Passives,
				fmt.Sprintf("Rc%d %s %s %s", i, c.Pos.From, c.Pos.To, units.Format(c.R)))
		}
	}
	return out, nil
}

// Power returns the mapped supply power estimate.
func (n *Netlist) Power() float64 { return n.VDD * n.ITotal }
