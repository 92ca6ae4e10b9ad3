package backend

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"artisan/internal/design"
	"artisan/internal/gmid"
	"artisan/internal/measure"
	"artisan/internal/spec"
	"artisan/internal/topology"
)

// archFor mirrors the knowledge base's architecture routing: NMC for the
// general groups, NMCF for the high-GBW group, DFCFC for the huge load.
func archFor(group string) string {
	switch group {
	case "G-3":
		return "NMCF"
	case "G-5":
		return "DFCFC"
	default:
		return "NMC"
	}
}

func measureEval(ctx context.Context, sp spec.Spec, tp *topology.Topology) (measure.Report, error) {
	env := topology.DefaultEnv()
	env.CL, env.RL = sp.CL, sp.RL
	nl, err := tp.Elaborate(env)
	if err != nil {
		return measure.Report{}, err
	}
	return measure.AnalyzeContext(ctx, nl, "out")
}

// detune multiplies every tunable value by a seeded log-normal jitter,
// standing in for a badly mis-sized starting point.
func detune(t *topology.Topology, seed int64, sigma float64) *topology.Topology {
	rng := rand.New(rand.NewSource(seed))
	jitter := func() float64 {
		v := rng.NormFloat64() * sigma
		if v > 1.5 {
			v = 1.5
		}
		if v < -1.5 {
			v = -1.5
		}
		return math.Exp(v)
	}
	out := t.Clone()
	for i := range out.Stages {
		if out.Stages[i].Gm > 0 {
			out.Stages[i].Gm *= jitter()
		}
	}
	for i := range out.Conns {
		c := &out.Conns[i]
		if c.Type.HasGm() {
			c.Gm *= jitter()
		}
		if c.Type.HasC() {
			c.C *= jitter()
		}
		if c.Type.HasR() {
			c.R *= jitter()
		}
	}
	return out
}

func problemFor(t *testing.T, group string, seed int64, budget int) (Problem, spec.Spec) {
	t.Helper()
	g, err := spec.Group(group)
	if err != nil {
		t.Fatal(err)
	}
	des, err := design.Design(archFor(group), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	topo := detune(des.Topo, seed, 0.8)
	return Problem{
		Spec: g, Topo: topo, Budget: budget,
		Eval: func(ctx context.Context, tp *topology.Topology) (measure.Report, error) {
			return measureEval(ctx, g, tp)
		},
	}, g
}

func TestRegistry(t *testing.T) {
	want := []string{"bo", "ga", "hybrid", "whitebox"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if _, err := Get(DefaultName); err != nil {
		t.Fatalf("default backend: %v", err)
	}
	if _, err := Get("annealing"); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestLadder(t *testing.T) {
	cases := map[string][]string{
		"hybrid":   {"hybrid", "bo"},
		"whitebox": {"whitebox", "bo"},
		"ga":       {"ga", "bo"},
		"bo":       {"bo"},
	}
	for name, want := range cases {
		if got := Ladder(name); !reflect.DeepEqual(got, want) {
			t.Errorf("Ladder(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestBackendsRunAndAreDeterministic(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			run, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			p, _ := problemFor(t, "G-1", 7, 60)
			r1, err := run(context.Background(), p, 42)
			if err != nil {
				t.Fatalf("Size: %v", err)
			}
			if r1.Evals == 0 || r1.Evals > p.Budget {
				t.Errorf("evals = %d, budget %d", r1.Evals, p.Budget)
			}
			if r1.Topo == nil {
				t.Fatal("nil result topology")
			}
			if r1.Success && (r1.EvalsToSuccess < 1 || r1.EvalsToSuccess > r1.Evals) {
				t.Errorf("EvalsToSuccess = %d out of range", r1.EvalsToSuccess)
			}
			r2, err := run(context.Background(), p, 42)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Score != r2.Score || r1.Evals != r2.Evals || r1.EvalsToSuccess != r2.EvalsToSuccess {
				t.Errorf("nondeterministic: (%g,%d,%d) vs (%g,%d,%d)",
					r1.Score, r1.Evals, r1.EvalsToSuccess, r2.Score, r2.Evals, r2.EvalsToSuccess)
			}
		})
	}
}

func TestWhiteboxRecoversDetunedNMC(t *testing.T) {
	p, g := problemFor(t, "G-1", 3, 40)
	run, _ := Get("whitebox")
	res, err := run(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("whitebox failed to recover the detuned design: score %g, report %s",
			res.Score, res.Report.String())
	}
	// The analytic seed itself should already satisfy the spec: success
	// within the first few evaluations, not after a long search.
	if res.EvalsToSuccess > 3 {
		t.Errorf("EvalsToSuccess = %d, want the seed region (<= 3)", res.EvalsToSuccess)
	}
	if !g.Satisfied(res.Report) {
		t.Error("reported success but spec unsatisfied")
	}
}

func TestHybridSeedsIncumbent(t *testing.T) {
	p, _ := problemFor(t, "G-1", 3, 60)
	run, _ := Get("hybrid")
	res, err := run(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Errorf("hybrid failed on a seedable problem: %s", res.Report.String())
	}
	if res.EvalsToSuccess > 3 {
		t.Errorf("EvalsToSuccess = %d, want incumbent-led (<= 3)", res.EvalsToSuccess)
	}
}

func TestSizeLadderDegradesToBO(t *testing.T) {
	// A topology outside the card families: a bare R shunt carries no
	// recognizable compensation, so the white-box seed must fail and the
	// ladder must fall back to plain BO.
	topo := &topology.Topology{
		Name: "bare",
		Stages: []topology.Stage{
			{Gm: 1e-4, A0: 160}, {Gm: 1e-4, A0: 45}, {Gm: 1e-3, A0: 45},
		},
		Conns: []topology.Connection{
			{Pos: topology.Position{From: "n1", To: "0"}, Type: topology.ConnR, R: 1e5},
		},
	}
	g, _ := spec.Group("G-1")
	p := Problem{
		Spec: g, Topo: topo, Budget: 40,
		Eval: func(ctx context.Context, tp *topology.Topology) (measure.Report, error) {
			return measureEval(ctx, g, tp)
		},
	}
	var hops []string
	res, err := SizeLadder(context.Background(), "whitebox", p, 1, func(from, to string, err error) {
		hops = append(hops, from+">"+to)
		if err == nil {
			t.Error("degradation hop without error")
		}
	})
	if err != nil {
		t.Fatalf("ladder exhausted: %v", err)
	}
	if res.Backend != "bo" {
		t.Errorf("result backend = %q, want bo", res.Backend)
	}
	if len(hops) != 1 || hops[0] != "whitebox>bo" {
		t.Errorf("hops = %v", hops)
	}
}

func TestSizeLadderContextErrorIsTerminal(t *testing.T) {
	p, _ := problemFor(t, "G-1", 3, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	_, err := SizeLadder(ctx, "whitebox", p, 1, func(from, to string, err error) { called = true })
	if err == nil {
		t.Fatal("cancelled ladder succeeded")
	}
	if called {
		t.Error("cancelled run degraded instead of stopping")
	}
}

func TestProblemValidation(t *testing.T) {
	g, _ := spec.Group("G-1")
	run, _ := Get("bo")
	_, err := run(context.Background(), Problem{Spec: g}, 1)
	if err == nil || !strings.Contains(err.Error(), "topology") {
		t.Errorf("nil topology accepted: %v", err)
	}
	des, _ := design.Design("NMC", g, nil)
	_, err = run(context.Background(), Problem{Spec: g, Topo: des.Topo, Budget: 40}, 1)
	if err == nil || !strings.Contains(err.Error(), "evaluator") {
		t.Errorf("nil evaluator accepted: %v", err)
	}
	p, _ := problemFor(t, "G-1", 1, 5)
	if _, err := run(context.Background(), p, 1); err == nil {
		t.Error("tiny budget accepted")
	}
}

func TestSpaceRoundTrip(t *testing.T) {
	g, _ := spec.Group("G-1")
	des, err := design.Design("NMC", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSpace(des.Topo)
	if err != nil {
		t.Fatal(err)
	}
	// NMC: 3 stage gms + 2 caps.
	if len(s.Lo) != 5 {
		t.Fatalf("dim = %d, want 5", len(s.Lo))
	}
	x, err := s.PointOf(des.Topo)
	if err != nil {
		t.Fatal(err)
	}
	tp := s.Build(x)
	for i := range tp.Stages {
		got, want := tp.Stages[i].Gm, des.Topo.Stages[i].Gm
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("stage %d gm round trip: %g vs %g", i, got, want)
		}
	}
	for i := range x {
		if x[i] < s.Lo[i] || x[i] > s.Hi[i] {
			t.Errorf("center coordinate %d outside bounds", i)
		}
	}
	// Two-stage skeletons skip the dead third-stage slot.
	smc := topology.SMC(1e-4, 1e-3, 1e-12)
	s2, err := NewSpace(smc)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Lo) != 3 {
		t.Errorf("SMC dim = %d, want 3 (two gms + Cc)", len(s2.Lo))
	}
}

// TestSeedInBoundsAllGroupsAllCorners is the satellite coverage
// requirement: for every spec group and every process corner, the
// white-box seed must land inside the sizing problem's bounds (the ±4×
// log-space window around the designed topology).
func TestSeedInBoundsAllGroupsAllCorners(t *testing.T) {
	plan := gmid.DefaultStagePlan()
	for _, g := range spec.Groups() {
		des, err := design.Design(archFor(g.Name), g, nil)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		space, err := NewSpace(des.Topo)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for _, tech := range gmid.Corners() {
			seeded, err := Seed(g, des.Topo, tech, plan)
			if err != nil {
				t.Errorf("%s @ %s: seed failed: %v", g.Name, tech.Name, err)
				continue
			}
			x, err := space.PointOf(seeded)
			if err != nil {
				t.Errorf("%s @ %s: %v", g.Name, tech.Name, err)
				continue
			}
			for i := range x {
				if x[i] < space.Lo[i] || x[i] > space.Hi[i] {
					t.Errorf("%s @ %s: seed coordinate %d = %g outside [%g, %g]",
						g.Name, tech.Name, i, x[i], space.Lo[i], space.Hi[i])
				}
			}
		}
	}
}

func TestSeedClassifiesAllLibraryArchitectures(t *testing.T) {
	g, _ := spec.Group("G-1")
	for _, arch := range design.Architectures() {
		sp := g
		if arch == "DFCFC" {
			sp, _ = spec.Group("G-5")
		}
		des, err := design.Design(arch, sp, nil)
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		got, err := classify(des.Topo)
		if err != nil {
			t.Errorf("%s: classify failed: %v", arch, err)
			continue
		}
		if got != arch {
			t.Errorf("classify(%s) = %s", arch, got)
		}
		if _, err := Seed(sp, des.Topo, gmid.Default180nm(), gmid.DefaultStagePlan()); err != nil {
			t.Errorf("Seed(%s): %v", arch, err)
		}
	}
}

func TestSeedSatisfiesSpecOnDesignedTopologies(t *testing.T) {
	// The analytic point should meet the spec outright on the calibrated
	// families (that is the whole premise of the white-box engine).
	for _, group := range []string{"G-1", "G-2", "G-4"} {
		g, _ := spec.Group(group)
		des, err := design.Design("NMC", g, nil)
		if err != nil {
			t.Fatal(err)
		}
		seeded, err := Seed(g, des.Topo, gmid.Default180nm(), gmid.DefaultStagePlan())
		if err != nil {
			t.Fatalf("%s: %v", group, err)
		}
		rep, err := measureEval(context.Background(), g, seeded)
		if err != nil {
			t.Fatalf("%s: %v", group, err)
		}
		if !g.Satisfied(rep) {
			t.Errorf("%s: seed misses spec: %s", group, spec.Describe(g.Check(rep)))
		}
	}
}
