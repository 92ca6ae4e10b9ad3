package artisan

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"artisan/internal/backend"
	"artisan/internal/chaos"
	"artisan/internal/cluster"
	"artisan/internal/core"
	"artisan/internal/experiment"
	"artisan/internal/measure"
	"artisan/internal/mna"
	"artisan/internal/server"
	"artisan/internal/spec"
	"artisan/internal/telemetry"
	"artisan/internal/topology"
)

// TestHotPathAllocs is the allocation gate over every layer a /design
// request crosses: each simulator operation below, built from the setup
// of the benchmark of the same name, an untuned design run through core
// (with and without its transcript), a cached POST /design through the
// server's handler and through the router in front of a node, and each
// sizing run must allocate exactly the committed count per
// call; a sizing run must also spend exactly its committed simulator
// evaluations, and a traced design run must open exactly its committed
// spans. The work the fast paths skip is pinned too, from span
// attributes: the posterior σ solves of the bo and hybrid trials, and
// the sweep points one analysis and each traced design run solve. These
// counts do not depend on the host's speed, load or CPU
// count, so the gate compares the same quantity on every machine; timing
// is judged by interleaved perfbench runs instead. A change that moves a
// count on purpose updates its row.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool caching; allocation counts are meaningless")
	}
	// A collection empties the router's pooled copy buffers, the one
	// sync.Pool on the gated path, and the refills would count as
	// allocations, so the collector stays off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	ctx := context.Background()
	topo, env := nmcRef(), topology.DefaultEnv()
	nl := nmcRefNetlist(t)
	c := nmcRefCircuit(t)
	g1, g1nl := g1Design(t)
	g5, _ := spec.Group("G-5")
	// A node with a journal, as deployed; the gate's warm-up call runs the
	// design and every counted call is served from the cache.
	srv := server.NewWithOptions(server.Options{Workers: 1, DataDir: t.TempDir()})
	defer func() {
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	postDesign := func() error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/design", strings.NewReader(`{"group":"G-1","seed":1}`)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST /design: %d %s", rec.Code, rec.Body)
		}
		return nil
	}
	// A second such node behind the router, over the in-process network
	// (no sockets). The router's health loop probes once at start and then
	// not for an hour; the gate waits for that probe to name the node
	// before it counts.
	vnet := chaos.NewVNet()
	node := server.NewWithOptions(server.Options{Workers: 1, DataDir: t.TempDir(), NodeID: "n1"})
	defer func() {
		if err := node.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	vnet.Register("n1", node)
	rt, err := cluster.NewRouter(cluster.RouterConfig{Nodes: []string{"http://n1"},
		Client: &http.Client{Transport: vnet}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if strings.Contains(rec.Body.String(), `"node":"n1"`) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	routeDesign := func() error {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/design", strings.NewReader(`{"group":"G-1","seed":1}`))
		req.Header.Set("Content-Type", "application/json")
		rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("routed POST /design: %d %s", rec.Code, rec.Body)
		}
		return nil
	}
	ops := []struct {
		name string
		want float64
		op   func() error
	}{
		{"Fig1Skeleton", 131, func() error {
			nl, err := topo.Elaborate(env)
			if err != nil {
				return err
			}
			_, err = measure.Analyze(nl, "out")
			return err
		}},
		{"MNASolve", 59, func() error {
			_, err := measure.Analyze(nl, "out")
			return err
		}},
		{"CircuitSolveAt", 0, func() error {
			_, err := c.SolveAt(mna.Omega(1e6))
			return err
		}},
		{"CircuitSweep", 0, func() error {
			_, err := c.Sweep(ctx, "out", 1e-2, 1e10, 24, everyPoint)
			return err
		}},
		{"PoleZero", 60, func() error {
			c, err := mna.Compile(nl)
			if err != nil {
				return err
			}
			if _, err := c.Poles(ctx); err != nil {
				return err
			}
			_, err = c.Zeros(ctx, "out")
			return err
		}},
		{"TransientStep", 206, func() error {
			_, err := measure.StepAnalyze(g1nl, "out", measure.DefaultStepOpts())
			return err
		}},
		{"NoiseSweep", 5, func() error {
			_, err := c.NoiseSweep("out", 1, 1e9, 10, mna.NoiseOpts{})
			return err
		}},
		// One worker at a fixed seed: perfbench circuit_sim's setting.
		{"MonteCarloYield", 548, func() error {
			_, err := experiment.MonteCarloYield(g1nl, g1,
				experiment.YieldOpts{Samples: 120, Sigma: 0.05, Seed: 1, Workers: 1})
			return err
		}},
		// One untuned run of the whole workflow; G-5's design fails, so
		// it skips the gm/Id mapping.
		{"CoreDesign/G-1", 1076, func() error {
			_, err := core.New(7).Design(ctx, g1)
			return err
		}},
		{"CoreDesign/G-5", 1056, func() error {
			_, err := core.New(7).Design(ctx, g5)
			return err
		}},
		// The same G-1 run for a reply that returns no transcript, as the
		// server runs it without transcript or verify.
		{"CoreDesign/G-1/no-transcript", 478, func() error {
			a := core.New(7)
			a.Opts.NoTranscript = true
			_, err := a.Design(ctx, g1)
			return err
		}},
		{"DesignHandler/cached", 64, postDesign},
		{"RoutedDesign/cached", 128, routeDesign},
	}
	// One trial per sizing backend on the reference NMC under G-1's load
	// (budget 60, seed 3), and one tuned session: BenchmarkAblationTuning's
	// session 2 on G-4, whose direct design misses, so the tuner fires.
	env1 := topology.DefaultEnv()
	env1.CL, env1.RL = g1.CL, g1.RL
	trial := backend.Problem{Spec: g1, Topo: topo, Budget: 60,
		Eval: func(ctx context.Context, tp *topology.Topology) (measure.Report, error) {
			nl, err := tp.Elaborate(env1)
			if err != nil {
				return measure.Report{}, err
			}
			return measure.AnalyzeContext(ctx, nl, "out")
		}}
	size := func(name string) func() (int, error) {
		return func() (int, error) {
			res, err := backend.SizeLadder(ctx, name, trial, 3, nil)
			if err != nil {
				return 0, err
			}
			return res.Evals, nil
		}
	}
	g4, _ := spec.Group("G-4")
	sizing := []struct {
		name  string
		want  float64
		evals int // simulator evaluations per call
		op    func() (int, error)
	}{
		{"SizeLadder/bo", 8257, 60, size("bo")},
		{"SizeLadder/ga", 7953, 58, size("ga")},
		{"SizeLadder/hybrid", 8390, 60, size("hybrid")},
		{"SizeLadder/whitebox", 7503, 53, size("whitebox")},
		// The design's verification plus the tuner's budget.
		{"TunedSession", 8143, 54, func() (int, error) {
			out, err := tuningSession(g4, 2, true)
			if err != nil {
				return 0, err
			}
			if out.SizingEvals != out.SimCount-1 {
				return 0, fmt.Errorf("tuner spent %d of %d simulator calls", out.SizingEvals, out.SimCount)
			}
			return out.SimCount, nil
		}},
	}

	gate := func(name string, want float64, op func() error) {
		if err := op(); err != nil { // warm-up: fills the pools and caches
			t.Fatalf("%s: %v", name, err)
		}
		var err error
		got := testing.AllocsPerRun(10, func() {
			if e := op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: %v allocs/op, want %v", name, got, want)
		}
	}
	for _, o := range ops {
		gate(o.name, o.want, o.op)
	}
	for _, o := range sizing {
		evals := 0
		gate(o.name, o.want, func() error {
			n, err := o.op()
			evals = n
			return err
		})
		if evals != o.evals {
			t.Errorf("%s: %d simulator evaluations, want %d", o.name, evals, o.evals)
		}
	}

	// The work the fast paths skip, read from span attributes: the σ
	// solves of the BO trials' acquisitions ("sizing.optimize"
	// sd_solves), and the sweep points one traced analysis solves
	// ("mna.sweep" points), which stop at the last crossing it reads. The
	// design runs below pin their sweep points too.
	for _, row := range []struct {
		name, span, attr string
		want             int
		op               func(context.Context) error
	}{
		{"SizeLadder/bo", "sizing.optimize", "sd_solves", 916, func(ctx context.Context) error {
			_, err := backend.SizeLadder(ctx, "bo", trial, 3, nil)
			return err
		}},
		{"SizeLadder/hybrid", "sizing.optimize", "sd_solves", 809, func(ctx context.Context) error {
			_, err := backend.SizeLadder(ctx, "hybrid", trial, 3, nil)
			return err
		}},
		{"MNASolve", "mna.sweep", "points", 203, func(ctx context.Context) error {
			_, err := measure.AnalyzeContext(ctx, nl, "out")
			return err
		}},
	} {
		tracer := telemetry.NewTracer(16)
		if err := row.op(telemetry.WithTracer(ctx, tracer)); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if got := sumAttr(t, tracer.Traces(), row.span, row.attr); got != row.want {
			t.Errorf("%s: %s %s summed to %d, want %d", row.name, row.span, row.attr, got, row.want)
		}
	}

	// The spans of one traced CoreDesign run: each agent step, tool call
	// and MNA analysis opens exactly one; and the sweep points its
	// analyses solve.
	g1Spans := map[string]int{"core.design": 1, "agents.session": 1,
		"llm.propose_architectures": 1, "llm.propose_knobs": 2, "cot.design": 2,
		"tool.simulator": 2, "mna.sweep": 2, "mna.poles": 2,
		"llm.propose_modification": 1, "gmid.map": 1}
	g5Spans := map[string]int{}
	for name, n := range g1Spans {
		if name != "gmid.map" {
			g5Spans[name] = n
		}
	}
	for _, row := range []struct {
		name   string
		sp     spec.Spec
		want   map[string]int
		points int
	}{{"Spans/G-1", g1, g1Spans, 401}, {"Spans/G-5", g5, g5Spans, 450}} {
		tracer := telemetry.NewTracer(1)
		if _, err := core.New(7).Design(telemetry.WithTracer(ctx, tracer), row.sp); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		got := map[string]int{}
		for name, st := range telemetry.SumByName(tracer.Traces()) {
			got[name] = st.Count
		}
		if !reflect.DeepEqual(got, row.want) {
			t.Errorf("%s: spans %v, want %v", row.name, got, row.want)
		}
		if got := sumAttr(t, tracer.Traces(), "mna.sweep", "points"); got != row.points {
			t.Errorf("%s: mna.sweep points summed to %d, want %d", row.name, got, row.points)
		}
	}
}

// sumAttr sums the integer attribute key of every span named name in the
// trace trees.
func sumAttr(t *testing.T, roots []*telemetry.Span, name, key string) int {
	t.Helper()
	sum := 0
	var walk func(s *telemetry.Span)
	walk = func(s *telemetry.Span) {
		if s.Name() == name {
			for _, a := range s.Attrs() {
				if a.Key == key {
					n, err := strconv.Atoi(a.Value)
					if err != nil {
						t.Fatalf("%s %s=%q: %v", name, key, a.Value, err)
					}
					sum += n
				}
			}
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return sum
}
