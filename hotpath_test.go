package artisan

import (
	"context"
	"runtime/debug"
	"testing"

	"artisan/internal/experiment"
	"artisan/internal/measure"
	"artisan/internal/mna"
	"artisan/internal/topology"
)

// TestHotPathAllocs is the allocation gate over the simulator hot path:
// each operation below, built from the setup of the benchmark of the same
// name, must allocate exactly the committed count per call. Allocation
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
	for _, o := range ops {
		if err := o.op(); err != nil { // warm-up: fills the pools and caches
			t.Fatalf("%s: %v", o.name, err)
		}
		var err error
		got := testing.AllocsPerRun(10, func() {
			if e := o.op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		if got != o.want {
			t.Errorf("%s: %v allocs/op, want %v", o.name, got, o.want)
		}
	}
}
