package topology

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"artisan/internal/measure"
	"artisan/internal/netlist"
	"artisan/internal/units"
)

func TestConnTypeAlphabet(t *testing.T) {
	if NumConnTypes != 25 {
		t.Fatalf("NumConnTypes = %d, want 25 (paper §3.2.2)", NumConnTypes)
	}
	seen := map[string]bool{}
	for i := 0; i < NumConnTypes; i++ {
		s := ConnType(i).String()
		if s == "" || strings.HasPrefix(s, "ConnType(") {
			t.Errorf("type %d has no name", i)
		}
		if seen[s] {
			t.Errorf("duplicate type name %q", s)
		}
		seen[s] = true
	}
	if ConnType(99).String() != "ConnType(99)" {
		t.Error("out-of-range String misbehaves")
	}
}

func TestTypePredicates(t *testing.T) {
	if !ConnGmNSeriesRC.HasGm() || !ConnGmNSeriesRC.HasC() || !ConnGmNSeriesRC.HasR() {
		t.Error("gm-RC should have all three elements")
	}
	if ConnC.HasGm() || ConnC.HasR() || !ConnC.HasC() {
		t.Error("C predicates wrong")
	}
	if !ConnGmN.Inverting() || ConnGmP.Inverting() {
		t.Error("polarity predicates wrong")
	}
	if !ConnDFCP.ShuntOnly() || ConnGmP.ShuntOnly() {
		t.Error("shunt predicates wrong")
	}
	if ConnNone.HasGm() || ConnNone.HasC() || ConnNone.HasR() {
		t.Error("none should have no elements")
	}
}

func TestLegalPositions(t *testing.T) {
	ps := LegalPositions()
	if len(ps) != 11 {
		t.Fatalf("got %d positions, want 11", len(ps))
	}
	for _, p := range ps {
		types := LegalTypesAt(p)
		if len(types) < 2 {
			t.Errorf("position %v has too few legal types", p)
		}
		for _, ct := range types {
			if ct == ConnNone {
				continue
			}
			if p.To == "0" && !ct.ShuntOnly() && ct.HasGm() {
				t.Errorf("gm type %v legal at ground shunt %v", ct, p)
			}
			if p.To != "0" && ct.ShuntOnly() {
				t.Errorf("DFC type %v legal at non-ground %v", ct, p)
			}
		}
	}
	if SpaceSize() < 1e6 {
		t.Errorf("design space %g, want ≥ 1e6 (paper: up to one million samples)", SpaceSize())
	}
}

// referenceNMC returns the NMC topology whose elaboration must reproduce
// the hand-built netlist used in the mna/measure tests.
func referenceNMC() *Topology {
	return NMC(25.13e-6, 37.7e-6, 251.3e-6, 4e-12, 3e-12)
}

func TestElaborateNMC(t *testing.T) {
	topo := referenceNMC()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	nl, err := topo.Elaborate(DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	// Structure: Vin + 3×(G,R,C) + 2 caps + RL + CL = 14 devices.
	if len(nl.Devices) != 14 {
		t.Errorf("device count = %d, want 14\n%s", len(nl.Devices), nl)
	}
	rep, err := measure.Analyze(nl, "out")
	if err != nil {
		t.Fatal(err)
	}
	if rep.GainDB < 95 || rep.GainDB > 115 {
		t.Errorf("GainDB = %g, want ≈ 105", rep.GainDB)
	}
	if rep.GBW < 0.7e6 || rep.GBW > 1.4e6 {
		t.Errorf("GBW = %g, want ≈ 1 MHz", rep.GBW)
	}
	if rep.PM < 45 || rep.PM > 80 {
		t.Errorf("PM = %g, want ≈ 60", rep.PM)
	}
	if !rep.Stable {
		t.Error("reference NMC should be stable")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Topology)
	}{
		{"zero stage gm", func(tp *Topology) { tp.Stages[1].Gm = 0 }},
		{"tiny A0", func(tp *Topology) { tp.Stages[0].A0 = 0.5 }},
		{"illegal position", func(tp *Topology) {
			tp.Conns = append(tp.Conns, Connection{Pos: Position{"out", "in"}, Type: ConnC, C: 1e-12})
		}},
		{"duplicate position", func(tp *Topology) {
			tp.Conns = append(tp.Conns, Connection{Pos: Position{"n1", "out"}, Type: ConnR, R: 1e4})
		}},
		{"gm type without gm", func(tp *Topology) {
			tp.Conns = append(tp.Conns, Connection{Pos: Position{"in", "out"}, Type: ConnGmP})
		}},
		{"C type without C", func(tp *Topology) {
			tp.Conns = append(tp.Conns, Connection{Pos: Position{"in", "out"}, Type: ConnC})
		}},
		{"R type without R", func(tp *Topology) {
			tp.Conns = append(tp.Conns, Connection{Pos: Position{"in", "out"}, Type: ConnR})
		}},
		{"DFC at non-ground", func(tp *Topology) {
			tp.Conns = append(tp.Conns, Connection{Pos: Position{"in", "out"}, Type: ConnDFCP, Gm: 1e-4, C: 1e-12})
		}},
		{"gm at ground shunt", func(tp *Topology) {
			tp.Conns = append(tp.Conns, Connection{Pos: Position{"n1", "0"}, Type: ConnGmP, Gm: 1e-4})
		}},
	}
	for _, c := range cases {
		tp := referenceNMC()
		c.mod(tp)
		if err := tp.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestConnAtSetRemove(t *testing.T) {
	tp := referenceNMC()
	if c := tp.ConnAt(Position{"n1", "out"}); c == nil || c.C != 4e-12 {
		t.Fatal("ConnAt failed")
	}
	tp.SetConn(Connection{Pos: Position{"n1", "out"}, Type: ConnSeriesRC, C: 4e-12, R: 2e3})
	if c := tp.ConnAt(Position{"n1", "out"}); c == nil || c.Type != ConnSeriesRC {
		t.Error("SetConn replace failed")
	}
	if !tp.RemoveConn(Position{"n2", "out"}) {
		t.Error("RemoveConn failed")
	}
	if tp.RemoveConn(Position{"n2", "out"}) {
		t.Error("double RemoveConn should be false")
	}
	if tp.ConnAt(Position{"n2", "out"}) != nil {
		t.Error("connection still present after removal")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tp := referenceNMC()
	c := tp.Clone()
	c.Conns[0].C = 9e-12
	c.Stages[0].Gm = 1e-3
	if tp.Conns[0].C == 9e-12 || tp.Stages[0].Gm == 1e-3 {
		t.Error("Clone shares state")
	}
}

// Every named library architecture must validate and elaborate to a valid
// netlist with sensible structure.
func TestLibraryElaborates(t *testing.T) {
	gm1, gm2, gm3 := 30e-6, 40e-6, 250e-6
	archs := map[string]*Topology{
		"NMC":   NMC(gm1, gm2, gm3, 4e-12, 3e-12),
		"NMCNR": NMCNR(gm1, gm2, gm3, 4e-12, 3e-12, 3e3),
		"NMCF":  NMCF(gm1, gm2, gm3, 4e-12, 3e-12, 100e-6),
		"MNMC":  MNMC(gm1, gm2, gm3, 4e-12, 3e-12, 50e-6),
		"NGCC":  NGCC(gm1, gm2, gm3, 4e-12, 3e-12, 40e-6, 260e-6),
		"DFCFC": DFCFC(gm1, gm2, gm3, 2e-12, 300e-6, 1e-12, 250e-6),
		"TCFC":  TCFC(gm1, gm2, gm3, 2e-12, 200e-6, 1e-12),
		"AZC":   AZC(gm1, gm2, gm3, 4e-12, 50e-6, 2e-12),
		"SMC":   SMC(60e-6, 600e-6, 2e-12),
		"SMCNR": SMCNR(60e-6, 600e-6, 2e-12, 1.7e3),
	}
	for name, tp := range archs {
		if tp.Name != name {
			t.Errorf("%s: Name = %q", name, tp.Name)
		}
		nl, err := tp.Elaborate(DefaultEnv())
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := nl.Validate(); err != nil {
			t.Errorf("%s: invalid netlist: %v", name, err)
		}
		if _, err := measure.Analyze(nl, "out"); err != nil {
			t.Errorf("%s: Analyze: %v", name, err)
		}
	}
}

// Each connection type must elaborate into devices when placed at a legal
// position — exhaustive over the alphabet.
func TestEveryConnTypeElaborates(t *testing.T) {
	for ct := ConnType(1); int(ct) < NumConnTypes; ct++ {
		pos := Position{"n1", "out"}
		if ct.ShuntOnly() {
			pos = Position{"n2", "0"}
		}
		c := Connection{Pos: pos, Type: ct, Gm: 1e-4, R: 1e4, C: 1e-12}
		tp := &Topology{Name: "probe", Stages: stages(30e-6, 40e-6, 250e-6),
			Conns: []Connection{c}}
		nl, err := tp.Elaborate(DefaultEnv())
		if err != nil {
			t.Errorf("%v: %v", ct, err)
			continue
		}
		// Skeleton alone has 12 devices (Vin + 3×3 + RL + CL); every
		// non-none type must add at least one.
		if len(nl.Devices) < 13 {
			t.Errorf("%v: only %d devices", ct, len(nl.Devices))
		}
		if ct.HasGm() && nl.CountKind(netlist.VCCS) < 4 {
			t.Errorf("%v: expected an extra VCCS", ct)
		}
	}
}

func TestElaborateEnvChecks(t *testing.T) {
	tp := referenceNMC()
	if _, err := tp.Elaborate(Env{CL: 0, RL: 1e6, Dev: DefaultDeviceModel()}); err == nil {
		t.Error("zero CL accepted")
	}
	if _, err := tp.Elaborate(Env{CL: 1e-12, RL: -1, Dev: DefaultDeviceModel()}); err == nil {
		t.Error("negative RL accepted")
	}
}

func TestDeviceModel(t *testing.T) {
	m := DefaultDeviceModel()
	cp := m.Cp(251.3e-6)
	want := 251.3e-6/(2*3.14159265358979*1e9) + 5e-15
	if !units.ApproxEqual(cp, want, 1e-6) {
		t.Errorf("Cp = %g, want %g", cp, want)
	}
	if m.Cp(1e-6) <= m.CMin {
		t.Error("Cp should exceed CMin")
	}
}

func TestSamplerDeterminism(t *testing.T) {
	a, b := NewSampler(7), NewSampler(7)
	for i := 0; i < 20; i++ {
		ta, tb := a.Random(), b.Random()
		if ta.Summary() != tb.Summary() {
			t.Fatalf("samplers diverged at %d:\n%s\n%s", i, ta.Summary(), tb.Summary())
		}
	}
}

// Property: random topologies are always valid and elaborate to valid
// netlists.
func TestRandomTopologyValid(t *testing.T) {
	f := func(seed int64) bool {
		s := NewSampler(seed)
		tp := s.Random()
		if tp.Validate() != nil {
			return false
		}
		nl, err := tp.Elaborate(DefaultEnv())
		if err != nil {
			return false
		}
		return nl.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: mutation preserves validity.
func TestMutatePreservesValidity(t *testing.T) {
	s := NewSampler(42)
	tp := referenceNMC()
	for i := 0; i < 300; i++ {
		tp = s.Mutate(tp)
		if err := tp.Validate(); err != nil {
			t.Fatalf("mutation %d produced invalid topology: %v", i, err)
		}
	}
	if _, err := tp.Elaborate(DefaultEnv()); err != nil {
		t.Fatalf("mutated topology does not elaborate: %v", err)
	}
}

func TestSummary(t *testing.T) {
	s := referenceNMC().Summary()
	for _, want := range []string{"NMC", "C@n1>out", "C@n2>out"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary %q missing %q", s, want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	src := DFCFC(18.8e-6, 15e-6, 340e-6, 3e-12, 34e-6, 3e-12, 51e-6)
	data, err := src.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"DFC+"`) {
		t.Errorf("connection types should marshal by name:\n%s", data)
	}
	got, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary() != src.Summary() {
		t.Errorf("round trip changed topology:\n%s\n%s", got.Summary(), src.Summary())
	}
	// Two-stage flag survives too.
	smc := SMC(20e-6, 200e-6, 1e-12)
	data2, _ := smc.ToJSON()
	got2, err := FromJSON(data2)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.TwoStage {
		t.Error("TwoStage flag lost in JSON")
	}
}

func TestJSONErrors(t *testing.T) {
	if _, err := FromJSON([]byte("{nope")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := FromJSON([]byte(`{"Name":"x","Stages":[{"Gm":0,"A0":45},{"Gm":1e-4,"A0":45},{"Gm":1e-4,"A0":45}]}`)); err == nil {
		t.Error("invalid topology accepted")
	}
	if _, err := FromJSON([]byte(`{"Name":"x","Conns":[{"Pos":{"From":"n1","To":"out"},"Type":"warp-drive"}]}`)); err == nil {
		t.Error("unknown type name accepted")
	}
	var ct ConnType = ConnType(99)
	if _, err := json.Marshal(ct); err == nil {
		t.Error("unknown ConnType marshalled")
	}
}
