package netlist

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildNMC constructs the behavioral NMC three-stage opamp used throughout
// the test suites: three VCCS stages with Ro/Cp, two nested Miller caps,
// a load, and an AC input source.
func buildNMC() *Netlist {
	n := New("nmc three-stage opamp")
	n.AddV("Vin", "in", Ground, 1)
	// stage 1
	n.AddG("Gm1", Ground, "n1", "in", Ground, 25.13e-6)
	n.AddR("Ro1", "n1", Ground, 4e6)
	n.AddC("Cp1", "n1", Ground, 4e-15)
	// stage 2
	n.AddG("Gm2", Ground, "n2", "n1", Ground, 37.7e-6)
	n.AddR("Ro2", "n2", Ground, 1.2e6)
	n.AddC("Cp2", "n2", Ground, 6e-15)
	// stage 3 (inverting)
	n.AddG("Gm3", "out", Ground, "n2", Ground, 251.3e-6)
	n.AddR("Ro3", "out", Ground, 180e3)
	n.AddC("Cp3", "out", Ground, 40e-15)
	// compensation + load
	n.AddC("Cm1", "n1", "out", 4e-12)
	n.AddC("Cm2", "n2", "out", 3e-12)
	n.AddR("RL", "out", Ground, 1e6)
	n.AddC("CL", "out", Ground, 10e-12)
	return n
}

func TestBuildAndValidate(t *testing.T) {
	n := buildNMC()
	if err := n.Validate(); err != nil {
		t.Fatalf("valid netlist rejected: %v", err)
	}
	if got := len(n.Devices); got != 14 {
		t.Errorf("device count = %d, want 13", got)
	}
	if got := n.CountKind(Capacitor); got != 6 {
		t.Errorf("capacitor count = %d, want 6", got)
	}
	nodes := n.Nodes()
	for _, want := range []string{"0", "in", "n1", "n2", "out"} {
		found := false
		for _, nd := range nodes {
			if nd == want {
				found = true
			}
		}
		if !found {
			t.Errorf("node %q missing from %v", want, nodes)
		}
	}
	if len(n.NonGroundNodes()) != len(nodes)-1 {
		t.Error("NonGroundNodes should drop exactly ground")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Netlist
	}{
		{"duplicate name", func() *Netlist {
			n := New("")
			n.AddR("R1", "a", "0", 1e3)
			n.AddR("R1", "b", "0", 1e3)
			return n
		}},
		{"wrong letter", func() *Netlist {
			n := New("")
			n.Devices = append(n.Devices, Device{Kind: Resistor, Name: "C1", Nodes: []string{"a", "0"}, Value: 1})
			return n
		}},
		{"negative resistor", func() *Netlist {
			n := New("")
			n.AddR("R1", "a", "0", -5)
			return n
		}},
		{"zero capacitor", func() *Netlist {
			n := New("")
			n.AddC("C1", "a", "0", 0)
			return n
		}},
		{"self-loop resistor", func() *Netlist {
			n := New("")
			n.AddR("R1", "a", "a", 1e3)
			return n
		}},
		{"shorted vccs output", func() *Netlist {
			n := New("")
			n.AddG("G1", "a", "a", "b", "0", 1e-3)
			n.AddR("R1", "a", "0", 1e3)
			n.AddR("R2", "b", "0", 1e3)
			return n
		}},
		{"floating node", func() *Netlist {
			n := New("")
			n.AddR("R1", "a", "0", 1e3)
			n.AddR("R2", "b", "c", 1e3)
			return n
		}},
		{"empty device name", func() *Netlist {
			n := New("")
			n.Devices = append(n.Devices, Device{Kind: Resistor, Name: "", Nodes: []string{"a", "0"}, Value: 1})
			return n
		}},
		{"wrong terminal count", func() *Netlist {
			n := New("")
			n.Devices = append(n.Devices, Device{Kind: VCCS, Name: "G1", Nodes: []string{"a", "0"}, Value: 1})
			return n
		}},
		{"empty node name", func() *Netlist {
			n := New("")
			n.Devices = append(n.Devices, Device{Kind: Resistor, Name: "R1", Nodes: []string{"a", ""}, Value: 1})
			return n
		}},
	}
	for _, c := range cases {
		if err := c.build().Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid netlist", c.name)
		}
	}
}

func TestFindRemoveSetValue(t *testing.T) {
	n := buildNMC()
	if d := n.Find("Cm2"); d == nil || d.Value != 3e-12 {
		t.Fatal("Find(Cm2) failed")
	}
	if !n.SetValue("Cm2", 5e-12) || n.Find("Cm2").Value != 5e-12 {
		t.Error("SetValue failed")
	}
	if !n.Remove("Cm2") || n.Find("Cm2") != nil {
		t.Error("Remove failed")
	}
	if n.Remove("Cm2") {
		t.Error("double Remove should report false")
	}
	if n.SetValue("nope", 1) {
		t.Error("SetValue on missing device should report false")
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := buildNMC()
	c := n.Clone()
	c.SetValue("Cm1", 9e-12)
	c.Devices[0].Nodes[0] = "other"
	if n.Find("Cm1").Value == 9e-12 {
		t.Error("Clone shares values")
	}
	if n.Devices[0].Nodes[0] == "other" {
		t.Error("Clone shares node slices")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	n := buildNMC()
	text := n.String()
	if !strings.Contains(text, "* nmc three-stage opamp") {
		t.Error("title missing from output")
	}
	if !strings.HasSuffix(text, ".end\n") {
		t.Error(".end missing")
	}
	p, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Title != n.Title {
		t.Errorf("title = %q, want %q", p.Title, n.Title)
	}
	if len(p.Devices) != len(n.Devices) {
		t.Fatalf("device count = %d, want %d", len(p.Devices), len(n.Devices))
	}
	for i := range p.Devices {
		a, b := p.Devices[i], n.Devices[i]
		if a.Name != b.Name || a.Kind != b.Kind {
			t.Errorf("device %d: got %v %v, want %v %v", i, a.Kind, a.Name, b.Kind, b.Name)
		}
		if rel := (a.Value - b.Value) / b.Value; rel > 1e-3 || rel < -1e-3 {
			t.Errorf("device %s: value %g vs %g", a.Name, a.Value, b.Value)
		}
	}
}

func TestParseVariants(t *testing.T) {
	src := `* test circuit
V1 in 0 AC 1
R1 in mid 10k

C1 mid 0 1p
.ac dec 10 1 1G
G1 0 out mid 0 100u
RO out 0 1MEG
.end
trailing garbage ignored`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Devices) != 5 {
		t.Fatalf("got %d devices, want 5", len(n.Devices))
	}
	if n.Find("V1").Value != 1 {
		t.Error("AC keyword not handled")
	}
	if n.Find("RO").Value != 1e6 {
		t.Error("1MEG not parsed")
	}
	if err := n.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"R1 a 0",           // missing value
		"X1 a 0 5",         // unknown letter
		"R1 a 0 zz",        // bad value
		"G1 a 0 b 5",       // too few nodes for VCCS
		"R1 a b 0 extra 5", // too many fields
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// Property: random RC ladder netlists round-trip through text.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := New("random ladder")
		prev := Ground
		for i := 0; i < 3+rng.Intn(8); i++ {
			node := string(rune('a' + i))
			n.AddR(deviceName("R", i), prev, node, 1e3*(1+rng.Float64()*99))
			n.AddC(deviceName("C", i), node, Ground, 1e-12*(1+rng.Float64()*99))
			prev = node
		}
		text := n.String()
		p, err := Parse(text)
		if err != nil {
			return false
		}
		if len(p.Devices) != len(n.Devices) {
			return false
		}
		for i := range p.Devices {
			rel := (p.Devices[i].Value - n.Devices[i].Value) / n.Devices[i].Value
			if rel > 1e-3 || rel < -1e-3 {
				return false
			}
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func deviceName(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("R1 a 0")
}

func TestDeviceKindStrings(t *testing.T) {
	kinds := []DeviceKind{Resistor, Capacitor, VCCS, VCVS, VSource, ISource}
	letters := []string{"R", "C", "G", "E", "V", "I"}
	for i, k := range kinds {
		if k.String() != letters[i] {
			t.Errorf("kind %d String = %q, want %q", i, k.String(), letters[i])
		}
	}
	if DeviceKind(99).String() != "?" {
		t.Error("unknown kind should stringify to ?")
	}
}
