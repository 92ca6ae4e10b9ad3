package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"artisan/internal/agents"
	"artisan/internal/llm"
	"artisan/internal/netlist"
	"artisan/internal/spec"
	"artisan/internal/topology"
)

func designedNetlist(t *testing.T, g spec.Spec) *netlist.Netlist {
	t.Helper()
	out, err := agents.NewSession(llm.NewDomainModel(1, 0), g, agents.DefaultOptions()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success {
		t.Fatalf("design failed: %s", out.FailReason)
	}
	return out.Netlist
}

func TestArtisanDesignYield(t *testing.T) {
	g1, _ := spec.Group("G-1")
	nl := designedNetlist(t, g1)
	res, err := MonteCarloYield(nl, g1, YieldOpts{Samples: 120, Sigma: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A margin-driven design survives 5% spread most of the time. The
	// binding metric is PM: Butterworth sizing targets 60° but parasitic
	// loading eats a few degrees, leaving ~1-2° of margin over the 55°
	// spec — so about a third of mismatch samples dip below it.
	if res.Yield() < 0.55 {
		t.Errorf("Artisan G-1 yield = %v, want >= 55%% (violations: %v)", res, res.Violations)
	}
	if !strings.Contains(res.String(), "yield") {
		t.Error("String malformed")
	}
}

func TestYieldDropsOnMarginlessDesign(t *testing.T) {
	// An NMC sized exactly at the spec boundary (no GBW margin, minimum
	// PM) must yield worse than the margined design.
	g1, _ := spec.Group("G-1")
	marginless := topology.NMC(
		2*3.14159265*0.7e6*4e-12, // gm1 for GBW exactly 0.7 MHz
		4*3.14159265*0.7e6*3e-12,
		8*3.14159265*0.7e6*10e-12,
		4e-12, 3e-12)
	env := topology.DefaultEnv()
	nl, err := marginless.Elaborate(env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MonteCarloYield(nl, g1, YieldOpts{Samples: 120, Sigma: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	margined := designedNetlist(t, g1)
	res2, err := MonteCarloYield(margined, g1, YieldOpts{Samples: 120, Sigma: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield() >= res2.Yield() {
		t.Errorf("marginless yield %v should trail margined %v", res, res2)
	}
	// The boundary design fails dominantly on GBW.
	if res.Violations["GBW(Hz)"] == 0 {
		t.Errorf("expected GBW violations, got %v", res.Violations)
	}
}

func TestYieldValidation(t *testing.T) {
	g1, _ := spec.Group("G-1")
	bad := netlist.New("floating")
	bad.AddR("R1", "a", "b", 1e3)
	if _, err := MonteCarloYield(bad, g1, DefaultYieldOpts(1)); err == nil {
		t.Error("invalid netlist accepted")
	}
}

func TestYieldDeterministic(t *testing.T) {
	g1, _ := spec.Group("G-1")
	nl := designedNetlist(t, g1)
	a, _ := MonteCarloYield(nl, g1, YieldOpts{Samples: 40, Sigma: 0.05, Seed: 9})
	b, _ := MonteCarloYield(nl, g1, YieldOpts{Samples: 40, Sigma: 0.05, Seed: 9})
	if a.Pass != b.Pass {
		t.Error("yield not deterministic")
	}
}

func TestCornersOnArtisanDesign(t *testing.T) {
	g1, _ := spec.Group("G-1")
	out, err := agents.NewSession(llm.NewDomainModel(1, 0), g1, agents.DefaultOptions()).Run(context.Background())
	if err != nil || !out.Success {
		t.Fatalf("design failed: %v", err)
	}
	rep, err := RunCorners(out.Topology, g1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 5 {
		t.Fatalf("got %d corners", len(rep.Results))
	}
	// TT must pass (it is the nominal design point).
	if !rep.Results[0].Pass {
		t.Errorf("TT corner fails: %v", rep.Results[0].Report)
	}
	// FF has more gm per bias: GBW must rise relative to SS.
	var ff, ss CornerResult
	for _, c := range rep.Results {
		switch c.Corner.Name {
		case "FF":
			ff = c
		case "SS":
			ss = c
		}
	}
	if ff.Report.GBW <= ss.Report.GBW {
		t.Errorf("FF GBW %g should exceed SS %g", ff.Report.GBW, ss.Report.GBW)
	}
	if !strings.Contains(rep.String(), "TT") {
		t.Error("table malformed")
	}
}

func TestCornersValidation(t *testing.T) {
	g1, _ := spec.Group("G-1")
	tp := topology.NMC(25e-6, 38e-6, 251e-6, 4e-12, 3e-12)
	if _, err := RunCorners(tp, g1, []Corner{{Name: "bad", GmScale: 0, FTScale: 1, A0Scale: 1}}); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestBudgetCurve(t *testing.T) {
	g1, _ := spec.Group("G-1")
	pts, err := BudgetCurve(context.Background(), MethodGA, g1, []int{30, 60}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Budget != 30 || pts[1].Budget != 60 {
		t.Fatalf("curve = %+v", pts)
	}
	if !strings.Contains(FormatCurve(MethodGA, pts), "sims:") {
		t.Error("format malformed")
	}
	if _, err := BudgetCurve(context.Background(), MethodArtisan, g1, []int{10}, 1, 1); err == nil {
		t.Error("Artisan budget curve should be refused")
	}
	if _, err := BudgetCurve(context.Background(), MethodGA, g1, []int{10}, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BudgetCurve(ctx, MethodGA, g1, []int{30}, 1, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled curve: err = %v, want context.Canceled", err)
	}
}

func TestGAThroughHarness(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Trials = 1
	cfg.Budget = 40
	cfg.Methods = []Method{MethodGA}
	cfg.Groups = []string{"G-1"}
	t3, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := t3.Cell(MethodGA, "G-1")
	if !ok {
		t.Fatal("GA cell missing")
	}
	if c.Time <= 0 {
		t.Error("GA time not modeled")
	}
}

func TestYieldIdenticalAcrossWorkers(t *testing.T) {
	// The sharding contract: per-sample RNG streams are derived from
	// (seed, index), and outcomes aggregate in index order — so the result
	// must be byte-identical for every worker count, including serial.
	g1, _ := spec.Group("G-1")
	nl := designedNetlist(t, g1)
	ref, err := MonteCarloYield(nl, g1, YieldOpts{Samples: 60, Sigma: 0.05, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 7} {
		got, err := MonteCarloYield(nl, g1, YieldOpts{Samples: 60, Sigma: 0.05, Seed: 11, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: %+v != serial %+v", workers, got, ref)
		}
	}
}

// RunCorners evaluates corners concurrently but must report exactly what
// a serial loop over runCorner reports: results in corner order and, on
// failure, the lowest-index failing corner with the results before it.
func TestCornersMatchSerialLoop(t *testing.T) {
	g1, _ := spec.Group("G-1")
	tp := topology.NMC(25e-6, 38e-6, 251e-6, 4e-12, 3e-12)
	serial := func(corners []Corner) (CornersReport, error) {
		var out CornersReport
		for _, cn := range corners {
			res, err := runCorner(tp, g1, cn)
			if err != nil {
				return out, err
			}
			out.Results = append(out.Results, res)
		}
		return out, nil
	}
	std := StandardCorners()
	bad := func(name string) Corner { return Corner{Name: name, GmScale: 1, FTScale: 0, A0Scale: 1} }
	for name, corners := range map[string][]Corner{
		"standard": std,
		"failing":  {std[0], std[1], bad("bad1"), std[2], bad("bad2")},
	} {
		want, wantErr := serial(corners)
		got, err := RunCorners(tp, g1, corners)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: err = %v, want %v", name, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: RunCorners = %+v, serial loop = %+v", name, got, want)
		}
	}
}
