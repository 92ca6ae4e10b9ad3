package artisan

import (
	"context"
	"fmt"
	"runtime/debug"
	"testing"

	"artisan/internal/backend"
	"artisan/internal/experiment"
	"artisan/internal/measure"
	"artisan/internal/mna"
	"artisan/internal/spec"
	"artisan/internal/topology"
)

// TestHotPathAllocs is the allocation gate over the simulator hot path
// and the sizing layer above it: each simulator operation below, built
// from the setup of the benchmark of the same name, and each sizing run
// must allocate exactly the committed count per call; a sizing run must
// also spend exactly its committed simulator evaluations. Allocation
// counts do not depend on the host's speed, load or CPU count, so the
// gate compares the same quantity on every machine; timing is judged by
// interleaved perfbench runs instead. A change that moves a count on
// purpose updates its row.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool caching; allocation counts are meaningless")
	}
	// A collection empties the sync.Pools the hot path reuses, and the
	// refills would count as allocations, so the collector stays off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	ctx := context.Background()
	topo, env := nmcRef(), topology.DefaultEnv()
	nl := nmcRefNetlist(t)
	c := nmcRefCircuit(t)
	ws := c.NewWorkspace()
	g1, g1nl := g1Design(t)
	ops := []struct {
		name string
		want float64
		op   func() error
	}{
		{"Fig1Skeleton", 143, func() error {
			nl, err := topo.Elaborate(env)
			if err != nil {
				return err
			}
			_, err = measure.Analyze(nl, "out")
			return err
		}},
		{"MNASolve", 71, func() error {
			_, err := measure.Analyze(nl, "out")
			return err
		}},
		{"CircuitSolveAt", 0, func() error {
			_, err := ws.SolveAt(mna.Omega(1e6))
			return err
		}},
		{"CircuitSweep", 2, func() error {
			_, err := c.Sweep(ctx, "out", 1e-2, 1e10, 24)
			return err
		}},
		{"PoleZero", 67, func() error {
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
		{"TransientStep", 209, func() error {
			_, err := measure.StepAnalyze(g1nl, "out", measure.DefaultStepOpts())
			return err
		}},
		{"NoiseSweep", 6, func() error {
			_, err := c.NoiseSweep("out", 1, 1e9, 10, mna.NoiseOpts{})
			return err
		}},
		// One worker at a fixed seed: perfbench circuit_sim's setting.
		{"MonteCarloYield", 551, func() error {
			_, err := experiment.MonteCarloYield(g1nl, g1,
				experiment.YieldOpts{Samples: 120, Sigma: 0.05, Seed: 1, Workers: 1})
			return err
		}},
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
		{"SizeLadder/bo", 8981, 60, size("bo")},
		{"SizeLadder/ga", 8661, 58, size("ga")},
		{"SizeLadder/hybrid", 9485, 60, size("hybrid")},
		{"SizeLadder/whitebox", 8531, 53, size("whitebox")},
		// The design's verification plus the tuner's budget.
		{"TunedSession", 9511, 54, func() (int, error) {
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
}
