package describe

import (
	"strings"
	"testing"
	"testing/quick"

	"artisan/internal/topology"
	"artisan/internal/units"
)

func TestDescribeNMC(t *testing.T) {
	topo := topology.NMC(25.13e-6, 37.7e-6, 251.3e-6, 4e-12, 3e-12)
	d := Describe(topo)
	for _, want := range []string{
		"three-stage operational amplifier",
		"input stage has transconductance 25.13u",
		"Miller compensation capacitor",
		"from the first-stage output to the output node",
		"capacitance 4p",
		"capacitance 3p",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("description missing %q:\n%s", want, d)
		}
	}
}

func TestParseRecoversNMC(t *testing.T) {
	topo := topology.NMC(25.13e-6, 37.7e-6, 251.3e-6, 4e-12, 3e-12)
	got, err := Parse(Describe(topo))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Conns) != 2 {
		t.Fatalf("parsed %d connections, want 2", len(got.Conns))
	}
	for i := range topo.Stages {
		if !units.ApproxEqual(got.Stages[i].Gm, topo.Stages[i].Gm, 1e-3) {
			t.Errorf("stage %d gm = %g, want %g", i, got.Stages[i].Gm, topo.Stages[i].Gm)
		}
	}
	c := got.ConnAt(topology.Position{From: "n1", To: "out"})
	if c == nil || c.Type != topology.ConnC || !units.ApproxEqual(c.C, 4e-12, 1e-3) {
		t.Errorf("outer Miller cap not recovered: %+v", c)
	}
}

func TestDescribeCascadeA0(t *testing.T) {
	topo := topology.NMC(30e-6, 40e-6, 250e-6, 4e-12, 3e-12)
	topo.Stages[1].A0 = 160
	got, err := Parse(Describe(topo))
	if err != nil {
		t.Fatal(err)
	}
	if got.Stages[1].A0 != 160 {
		t.Errorf("cascode A0 lost: %g", got.Stages[1].A0)
	}
}

func TestDescribeDFCFC(t *testing.T) {
	topo := topology.DFCFC(18.8e-6, 15e-6, 340e-6, 3e-12, 34e-6, 3e-12, 51e-6)
	d := Describe(topo)
	if !strings.Contains(d, "damping-factor-control block") {
		t.Errorf("DFC phrase missing:\n%s", d)
	}
	if !strings.Contains(d, "attached at the second-stage output") &&
		!strings.Contains(d, "attached at the first-stage output") {
		t.Errorf("DFC attachment missing:\n%s", d)
	}
	got, err := Parse(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.ConnAt(topology.Position{From: "n1", To: "0"}) == nil {
		t.Error("DFC block not recovered at n1 shunt")
	}
	ff := got.ConnAt(topology.Position{From: "n1", To: "out"})
	if ff == nil || ff.Type != topology.ConnGmNParallelC {
		t.Errorf("feedforward-with-cap not recovered: %+v", ff)
	}
}

// Round trip over every connection type.
func TestRoundTripEveryType(t *testing.T) {
	for ct := topology.ConnType(1); int(ct) < topology.NumConnTypes; ct++ {
		pos := topology.Position{From: "n1", To: "out"}
		if ct.ShuntOnly() {
			pos = topology.Position{From: "n2", To: "0"}
		}
		topo := topology.NMC(30e-6, 40e-6, 250e-6, 4e-12, 3e-12)
		topo.RemoveConn(topology.Position{From: "n1", To: "out"})
		topo.SetConn(topology.Connection{Pos: pos, Type: ct, Gm: 123e-6, R: 4.7e3, C: 2.2e-12})
		if err := topo.Validate(); err != nil {
			t.Fatalf("%v: test topology invalid: %v", ct, err)
		}
		got, err := Parse(Describe(topo))
		if err != nil {
			t.Errorf("%v: %v", ct, err)
			continue
		}
		c := got.ConnAt(pos)
		if c == nil {
			t.Errorf("%v: connection lost at %v", ct, pos)
			continue
		}
		if c.Type != ct {
			t.Errorf("%v: came back as %v", ct, c.Type)
		}
		if ct.HasGm() && !units.ApproxEqual(c.Gm, 123e-6, 1e-3) {
			t.Errorf("%v: gm = %g", ct, c.Gm)
		}
		if ct.HasC() && !units.ApproxEqual(c.C, 2.2e-12, 1e-3) {
			t.Errorf("%v: C = %g", ct, c.C)
		}
		if ct.HasR() && !units.ApproxEqual(c.R, 4.7e3, 1e-3) {
			t.Errorf("%v: R = %g", ct, c.R)
		}
	}
}

// Property: random valid topologies survive the round trip structurally.
func TestRoundTripRandomTopologies(t *testing.T) {
	f := func(seed int64) bool {
		s := topology.NewSampler(seed)
		topo := s.Random()
		got, err := Parse(Describe(topo))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(got.Conns) != len(topo.Conns) {
			t.Logf("seed %d: %d conns vs %d", seed, len(got.Conns), len(topo.Conns))
			return false
		}
		for _, c := range topo.Conns {
			g := got.ConnAt(c.Pos)
			if g == nil || g.Type != c.Type {
				t.Logf("seed %d: lost %v at %v", seed, c.Type, c.Pos)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"This text is about cooking recipes.",
		"This is a three-stage operational amplifier.", // no stage values
	}
	for _, d := range bad {
		if _, err := Parse(d); err == nil {
			t.Errorf("Parse(%q) should fail", d)
		}
	}
}

func TestNewTuple(t *testing.T) {
	topo := topology.NMC(25e-6, 38e-6, 251e-6, 4e-12, 3e-12)
	tu, err := NewTuple(topo, topology.DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tu.Netlist, "Gm1") || !strings.Contains(tu.Netlist, ".end") {
		t.Error("netlist text malformed")
	}
	if !strings.Contains(tu.Description, "three-stage") {
		t.Error("description malformed")
	}
	// The two representations agree: parse both and compare stage gm.
	got, err := Parse(tu.Description)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(got.Stages[2].Gm, 251e-6, 1e-3) {
		t.Error("tuple description inconsistent with topology")
	}
}

func TestSplitSentences(t *testing.T) {
	ss := splitSentences("First with 25.13u value. Second here. Third")
	if len(ss) != 3 {
		t.Fatalf("got %d sentences: %v", len(ss), ss)
	}
	if !strings.Contains(ss[0], "25.13u") {
		t.Error("decimal point split a sentence")
	}
}

func TestTwoStageRoundTrip(t *testing.T) {
	topo := topology.SMCNR(20e-6, 190e-6, 1e-12, 5.2e3)
	d := Describe(topo)
	if !strings.Contains(d, "two-stage operational amplifier") {
		t.Fatalf("description: %s", d)
	}
	got, err := Parse(d)
	if err != nil {
		t.Fatal(err)
	}
	if !got.TwoStage {
		t.Error("TwoStage flag lost")
	}
	if !units.ApproxEqual(got.Stages[0].Gm, 20e-6, 1e-3) ||
		!units.ApproxEqual(got.Stages[1].Gm, 190e-6, 1e-3) {
		t.Errorf("stage gms = %g/%g", got.Stages[0].Gm, got.Stages[1].Gm)
	}
	c := got.ConnAt(topology.Position{From: "n1", To: "out"})
	if c == nil || c.Type != topology.ConnSeriesRC {
		t.Errorf("nulling branch lost: %+v", c)
	}
}

// A two-stage topology on the wire without its "TwoStage" flag (the field
// is omitempty, and FromJSON accepts it) must read exactly like the
// flagged library SMC with the same values.
func TestDescribeUnflaggedTwoStage(t *testing.T) {
	unflagged, err := topology.FromJSON([]byte(`{"Name":"SMC",` +
		`"Stages":[{"Gm":2e-05,"A0":160},{"Gm":0.00019,"A0":45}],` +
		`"Conns":[{"Pos":{"From":"n1","To":"out"},"Type":"C","C":1e-12}]}`))
	if err != nil {
		t.Fatal(err)
	}
	got, want := Describe(unflagged), Describe(topology.SMC(20e-6, 190e-6, 1e-12))
	if got != want {
		t.Errorf("unflagged two-stage reads\n%s\nwant\n%s", got, want)
	}
}
