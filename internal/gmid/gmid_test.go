package gmid

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"artisan/internal/design"
	"artisan/internal/spec"
	"artisan/internal/topology"
	"artisan/internal/units"
)

func TestGmIDInversionRoundTrip(t *testing.T) {
	tech := Default180nm()
	f := func(raw float64) bool {
		// gm/Id in (1, ceiling·0.98)
		g := 1 + math.Mod(math.Abs(raw), tech.MaxGmID()*0.98-1)
		ic, err := tech.ICFromGmID(g)
		if err != nil {
			return false
		}
		return units.ApproxEqual(tech.GmIDFromIC(ic), g, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestIDoverWRoundTrip checks the full table-methodology chain
// gm/Id → IC → ID/W → IC → gm/Id across all three inversion regions,
// for both device polarities, on every process corner.
func TestIDoverWRoundTrip(t *testing.T) {
	for _, tech := range Corners() {
		ranges := []struct {
			region   string
			lo, span float64 // gm/Id window, fraction of the ceiling
		}{
			// gm/Id near the ceiling ⇒ IC < 0.1 (weak); mid-range ⇒
			// moderate; low efficiency ⇒ IC > 10 (strong).
			{"weak", 0.93, 0.05},
			{"moderate", 0.35, 0.40},
			{"strong", 0.05, 0.15},
		}
		for _, r := range ranges {
			r := r
			f := func(raw float64, pmos bool) bool {
				frac := r.lo + math.Mod(math.Abs(raw), r.span)
				g := frac * tech.MaxGmID()
				ic, err := tech.ICFromGmID(g)
				if err != nil {
					return false
				}
				idw := tech.IDoverW(ic, 0, pmos)
				ic2, err := tech.ICFromIDoverW(idw, 0, pmos)
				if err != nil {
					return false
				}
				return units.ApproxEqual(tech.GmIDFromIC(ic2), g, 1e-9)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Errorf("%s %s: %v", tech.Name, r.region, err)
			}
		}
	}
}

func TestIDoverWRegions(t *testing.T) {
	tech := Default180nm()
	// Sanity-pin the region windows the round-trip test samples from.
	for _, c := range []struct {
		frac   float64
		region string
	}{{0.95, "weak"}, {0.5, "moderate"}, {0.1, "strong"}} {
		ic, err := tech.ICFromGmID(c.frac * tech.MaxGmID())
		if err != nil {
			t.Fatal(err)
		}
		if Region(ic) != c.region {
			t.Errorf("gm/Id at %.0f%% of ceiling: region %s, want %s (IC=%g)",
				c.frac*100, Region(ic), c.region, ic)
		}
	}
}

func TestIDoverWErrors(t *testing.T) {
	tech := Default180nm()
	if _, err := tech.ICFromIDoverW(0, 0, false); err == nil {
		t.Error("zero current density accepted")
	}
	if _, err := tech.ICFromIDoverW(-1, 0, true); err == nil {
		t.Error("negative current density accepted")
	}
}

func TestCorners(t *testing.T) {
	cs := Corners()
	if len(cs) != 5 {
		t.Fatalf("corner count = %d, want 5", len(cs))
	}
	if cs[0].Name != "generic-180nm-tt" {
		t.Errorf("first corner = %s, want typical", cs[0].Name)
	}
	tt := Default180nm()
	if cs[0].MuCoxN != tt.MuCoxN || cs[0].VTN != tt.VTN {
		t.Error("typical corner should match Default180nm")
	}
	seen := map[string]bool{}
	for _, c := range cs {
		if seen[c.Name] {
			t.Errorf("duplicate corner %s", c.Name)
		}
		seen[c.Name] = true
		if c.MuCoxN <= 0 || c.MuCoxP <= 0 || c.VTN <= 0 || c.VTP <= 0 {
			t.Errorf("corner %s has non-physical constants", c.Name)
		}
	}
	// FF is faster than TT on both polarities, SS slower; FS/SF mixed.
	ff, ss := cs[1], cs[2]
	if ff.MuCoxN <= tt.MuCoxN || ff.VTN >= tt.VTN {
		t.Error("FF should have stronger NMOS")
	}
	if ss.MuCoxP >= tt.MuCoxP || ss.VTP <= tt.VTP {
		t.Error("SS should have weaker PMOS")
	}
	fs := cs[3]
	if fs.MuCoxN <= tt.MuCoxN || fs.MuCoxP >= tt.MuCoxP {
		t.Error("FS should skew N fast, P slow")
	}
}

func TestGmIDMonotone(t *testing.T) {
	tech := Default180nm()
	// gm/Id falls as IC rises (deeper inversion = less efficiency).
	prev := math.Inf(1)
	for ic := 0.01; ic < 1000; ic *= 3 {
		g := tech.GmIDFromIC(ic)
		if g >= prev {
			t.Fatalf("gm/Id not monotone at IC=%g", ic)
		}
		prev = g
	}
	if tech.MaxGmID() < 25 || tech.MaxGmID() > 35 {
		t.Errorf("weak-inversion ceiling = %g, want ≈ 29.8", tech.MaxGmID())
	}
}

func TestICFromGmIDErrors(t *testing.T) {
	tech := Default180nm()
	if _, err := tech.ICFromGmID(0); err == nil {
		t.Error("zero gm/Id accepted")
	}
	if _, err := tech.ICFromGmID(tech.MaxGmID() + 1); err == nil {
		t.Error("above-ceiling gm/Id accepted")
	}
}

func TestRegionClassification(t *testing.T) {
	if Region(0.01) != "weak" || Region(1) != "moderate" || Region(100) != "strong" {
		t.Error("region boundaries wrong")
	}
}

func TestSize(t *testing.T) {
	tech := Default180nm()
	d, err := tech.Size("M1", 251.3e-6, 16, 0, false, "third stage CS")
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(d.Id, 251.3e-6/16, 1e-9) {
		t.Errorf("Id = %g", d.Id)
	}
	if d.L != tech.LAnalog {
		t.Errorf("default L = %g, want %g", d.L, tech.LAnalog)
	}
	if d.W <= 0 || d.W < tech.WMin {
		t.Errorf("W = %g", d.W)
	}
	if d.Region != "moderate" {
		t.Errorf("gm/Id=16 should be moderate inversion, got %s (IC=%g)", d.Region, d.IC)
	}
	if d.VGS <= tech.VTN {
		t.Errorf("VGS = %g should exceed VT", d.VGS)
	}
	line := d.Line("out n2 0 0")
	for _, want := range []string{"M1", "nch", "W=", "gm/Id=16.0", "third stage"} {
		if !strings.Contains(line, want) {
			t.Errorf("Line %q missing %q", line, want)
		}
	}
	// PMOS device is wider for the same operating point.
	dp, err := tech.Size("M2", 251.3e-6, 16, 0, true, "x")
	if err != nil {
		t.Fatal(err)
	}
	if dp.W <= d.W {
		t.Error("PMOS should be wider than NMOS at equal gm")
	}
}

func TestSizeErrors(t *testing.T) {
	tech := Default180nm()
	if _, err := tech.Size("M1", -1, 16, 0, false, ""); err == nil {
		t.Error("negative gm accepted")
	}
	if _, err := tech.Size("M1", 1e-3, 40, 0, false, ""); err == nil {
		t.Error("impossible gm/Id accepted")
	}
	if _, err := tech.Size("M1", 1e-3, 16, 0.1e-6, false, ""); err == nil {
		t.Error("sub-minimum L accepted")
	}
	// Absurd gm at high efficiency would need an enormous device.
	if _, err := tech.Size("M1", 10, 29, 0, false, ""); err == nil {
		t.Error("impossible width accepted")
	}
}

func TestMapNMC(t *testing.T) {
	g1, _ := spec.Group("G-1")
	r, err := design.Design("NMC", g1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := Map(Default180nm(), DefaultStagePlan(), r.Topo, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	// Skeleton: 2 pair + 2 mirror + tail + 2 CS + 2 loads = 9 devices.
	if len(tn.Devices) != 9 {
		t.Errorf("device count = %d, want 9", len(tn.Devices))
	}
	// Both Miller caps must survive as passives.
	if len(tn.Passives) != 2 {
		t.Errorf("passives = %v, want the two Miller caps", tn.Passives)
	}
	// Mapped power should be in the same ballpark as the behavioral
	// power model (tens of µW for G-1).
	p := tn.Power()
	if p < 10e-6 || p > 120e-6 {
		t.Errorf("mapped power = %g, want tens of µW", p)
	}
	text := tn.String()
	for _, want := range []string{"M1a", "M1b", "M4", "Cc", "transistor level", ".end"} {
		if !strings.Contains(text, want) {
			t.Errorf("netlist missing %q", want)
		}
	}
}

func TestMapDFCFCIncludesAux(t *testing.T) {
	g5, _ := spec.Group("G-5")
	r, err := design.Design("DFCFC", g5, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := Map(Default180nm(), DefaultStagePlan(), r.Topo, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	aux := 0
	for _, d := range tn.Devices {
		if strings.Contains(d.Role, "aux") {
			aux++
		}
	}
	// DFCFC has gmf (in the parallel conn) and gm4 (DFC block).
	if aux != 2 {
		t.Errorf("aux transconductors = %d, want 2", aux)
	}
}

func TestMapRejectsInvalidTopology(t *testing.T) {
	g1, _ := spec.Group("G-1")
	r, err := design.Design("NMC", g1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := r.Topo.Clone()
	bad.Stages[0].Gm = -1
	if _, err := Map(Default180nm(), DefaultStagePlan(), bad, 1.8); err == nil {
		t.Error("invalid topology accepted")
	}
}

func TestVovPositiveInStrongInversion(t *testing.T) {
	tech := Default180nm()
	if tech.Vov(25) <= 0 {
		t.Error("strong-inversion Vov should be positive")
	}
	if tech.Vov(0.01) >= 0 {
		t.Error("weak-inversion Vov should be negative (sub-VT)")
	}
}

// A two-stage topology on the wire without its "TwoStage" flag (the field
// is omitempty, and FromJSON accepts it) must map exactly like the
// flagged library SMC with the same values.
func TestMapUnflaggedTwoStage(t *testing.T) {
	unflagged, err := topology.FromJSON([]byte(`{"Name":"SMC",` +
		`"Stages":[{"Gm":2e-05,"A0":160},{"Gm":0.00019,"A0":45}],` +
		`"Conns":[{"Pos":{"From":"n1","To":"out"},"Type":"C","C":1e-12}]}`))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Map(Default180nm(), DefaultStagePlan(), topology.SMC(20e-6, 190e-6, 1e-12), 1.8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Map(Default180nm(), DefaultStagePlan(), unflagged, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unflagged two-stage maps to\n%s\nwant\n%s", got, want)
	}
}
