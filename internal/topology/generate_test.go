package topology

import (
	"bytes"
	"errors"
	"testing"

	"artisan/internal/measure"
	"artisan/internal/mna"
)

// checkInvariants asserts the three generator guarantees on one
// topology: it validates, it round-trips through JSON byte-identically,
// and its elaboration compiles and solves on the MNA path.
func checkInvariants(t *testing.T, topo *Topology, label string) {
	t.Helper()
	if err := topo.Validate(); err != nil {
		t.Fatalf("%s: invalid topology: %v", label, err)
	}
	blob, err := topo.ToJSON()
	if err != nil {
		t.Fatalf("%s: ToJSON: %v", label, err)
	}
	back, err := FromJSON(blob)
	if err != nil {
		t.Fatalf("%s: FromJSON: %v", label, err)
	}
	blob2, err := back.ToJSON()
	if err != nil {
		t.Fatalf("%s: re-ToJSON: %v", label, err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("%s: JSON round-trip not byte-identical:\n%s\nvs\n%s", label, blob, blob2)
	}
	nl, err := topo.Elaborate(DefaultEnv())
	if err != nil {
		t.Fatalf("%s: elaborate: %v", label, err)
	}
	circ, err := mna.Compile(nl)
	if err != nil {
		t.Fatalf("%s: MNA compile: %v", label, err)
	}
	if _, err := circ.VoltageAt("out", mna.Omega(1e3)); err != nil {
		t.Fatalf("%s: MNA solve: %v", label, err)
	}
}

// TestSamplerPropertySweep: across 1000 seeds, Random() and a chain of
// Mutate() steps always satisfy the generator invariants.
func TestSamplerPropertySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-seed property sweep")
	}
	for seed := int64(0); seed < 1000; seed++ {
		s := NewSampler(seed)
		topo := s.Random()
		checkInvariants(t, topo, "Random")
		m := s.Mutate(topo)
		m = s.Mutate(m)
		checkInvariants(t, m, "Mutate")
	}
}

// TestGeneratorPropertySweep: across 1000 seeds the constrained random
// generator keeps its guarantees — every draw validates, round-trips,
// and measures on the MNA path — while actually covering the design
// space: all stage depths in [2,4] and at least six distinct
// compensation families.
func TestGeneratorPropertySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-seed property sweep")
	}
	stageSeen := map[int]bool{}
	famSeen := map[string]bool{}
	for seed := int64(0); seed < 1000; seed++ {
		g := NewGenerator(seed)
		topo, nl, err := g.Netlist()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkInvariants(t, topo, "Generator")
		if _, err := measure.Analyze(nl, "out"); err != nil {
			t.Fatalf("seed %d: unmeasurable: %v", seed, err)
		}
		n := topo.NumStages()
		if n < MinStageCount || n > MaxStageCount {
			t.Fatalf("seed %d: %d stages outside [%d,%d]", seed, n, MinStageCount, MaxStageCount)
		}
		stageSeen[n] = true
		for _, f := range topo.CompFamilies() {
			famSeen[f] = true
		}
	}
	for n := MinStageCount; n <= MaxStageCount; n++ {
		if !stageSeen[n] {
			t.Errorf("1000 draws never produced a %d-stage topology", n)
		}
	}
	if len(famSeen) < 6 {
		t.Errorf("1000 draws covered %d compensation families %v; want >= 6", len(famSeen), famSeen)
	}
}

// TestGeneratorSeedReproducible: the same seed always yields the same
// topology (and therefore netlist), different seeds diverge.
func TestGeneratorSeedReproducible(t *testing.T) {
	a, nlA, err := NewGenerator(99).Netlist()
	if err != nil {
		t.Fatal(err)
	}
	b, nlB, err := NewGenerator(99).Netlist()
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := a.ToJSON()
	jb, _ := b.ToJSON()
	if !bytes.Equal(ja, jb) || nlA.String() != nlB.String() {
		t.Fatal("same seed produced different draws")
	}
	c, _, err := NewGenerator(100).Netlist()
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := c.ToJSON()
	if bytes.Equal(ja, jc) {
		t.Fatal("different seeds produced identical draws")
	}
}

// TestValidateTypedErrors: every rejection path wraps ErrInvalid, so
// callers can distinguish malformed topologies from infrastructure
// failures with errors.Is.
func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
	}{
		{"no stages", Topology{Name: "x"}},
		{"too deep", Topology{Name: "x", Stages: make([]Stage, MaxStageCount+1)}},
		{"dead stage", Topology{Name: "x", Stages: []Stage{{Gm: 0, A0: 100}, {Gm: 1e-3, A0: 45}}}},
		{"two-stage flag on 3 stages", Topology{Name: "x", TwoStage: true,
			Stages: []Stage{{Gm: 1e-3, A0: 160}, {Gm: 1e-3, A0: 45}, {Gm: 1e-3, A0: 45}}}},
		{"position beyond depth", Topology{Name: "x",
			Stages: []Stage{{Gm: 1e-3, A0: 160}, {Gm: 1e-3, A0: 45}},
			Conns:  []Connection{{Pos: Position{From: "n2", To: "out"}, Type: ConnC, C: 1e-12}}}},
	}
	for _, tc := range cases {
		err := tc.topo.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: error %v does not wrap ErrInvalid", tc.name, err)
		}
	}
	if err := (&Topology{Name: "ok", TwoStage: true,
		Stages: []Stage{{Gm: 1e-3, A0: 160}, {Gm: 1e-3, A0: 45}},
	}).Validate(); err != nil {
		t.Errorf("minimal two-stage rejected: %v", err)
	}
}

// TestLegalPositionsNesting: the legacy 3-stage position list is exactly
// LegalPositionsN(3), and position sets nest as depth grows (so a
// shallow topology is always valid in a deeper skeleton's terms).
func TestLegalPositionsNesting(t *testing.T) {
	legacy := LegalPositions()
	n3 := LegalPositionsN(3)
	if len(legacy) != len(n3) {
		t.Fatalf("LegalPositionsN(3) has %d positions, legacy %d", len(n3), len(legacy))
	}
	for i := range legacy {
		if legacy[i] != n3[i] {
			t.Fatalf("position %d: %v vs legacy %v", i, n3[i], legacy[i])
		}
	}
	for n := MinStageCount; n < MaxStageCount; n++ {
		inner := LegalPositionsN(n)
		outer := map[Position]bool{}
		for _, p := range LegalPositionsN(n + 1) {
			outer[p] = true
		}
		for _, p := range inner {
			if !outer[p] {
				t.Errorf("position %v legal at depth %d but not %d", p, n, n+1)
			}
		}
	}
}
