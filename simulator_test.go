package artisan

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"artisan/internal/experiment"
	"artisan/internal/measure"
	"artisan/internal/mna"
)

// simulatorOutputsHash is the FNV-64a digest of every simulator output
// TestSimulatorOutputsPinned collects over the first 128 pool circuits.
// The simulator's fast paths (capacitor-slot assembly, real-arithmetic
// determinants at real s, one noise solve per node pair, reused tanh,
// DC gain and sweep grid) are exact by construction; this digest is the
// proof that they stay so. Any change that moves one output bit moves it.
// The eigenvalue root find moved the pole and zero values (not their
// counts) within the residual tolerance; every other output hashes as
// before it.
const simulatorOutputsHash = "6650c10bdee235ab"

// TestSimulatorOutputsPinned pins the simulator bit for bit over the
// circuits perfbench's circuit_sim serves: for each circuit it hashes the
// float64 bits of every AnalyzeContext field, the poles and zeros, the
// step response's metrics and every waveform point, the output noise
// sweep, and a 32-sample serial Monte-Carlo yield's pass count and sorted
// violations. An error contributes its text instead of the values.
func TestSimulatorOutputsPinned(t *testing.T) {
	ctx := context.Background()
	h := fnv.New64a()
	for i, task := range poolTasks(t, 128) {
		fmt.Fprintf(h, "circuit %d\n", i)
		nl := task.Netlist
		rep, err := measure.AnalyzeContext(ctx, nl, "out")
		if err != nil {
			hashErr(h, err)
		} else {
			hashFloats(h, rep.DCGain, rep.GainDB, rep.GBW, rep.PM, rep.GM, rep.F3dB, rep.Power)
			fmt.Fprintf(h, "%v %d %q\n", rep.Stable, rep.NumPoles, rep.PoleZeroErr)
		}
		c, err := mna.Compile(nl)
		if err != nil {
			t.Fatalf("circuit %d: %v", i, err)
		}
		poles, err := c.Poles(ctx)
		hashRoots(h, poles, err)
		zeros, err := c.Zeros(ctx, "out")
		hashRoots(h, zeros, err)
		step, err := measure.StepAnalyze(nl, "out", measure.DefaultStepOpts())
		if err != nil {
			hashErr(h, err)
		} else {
			hashFloats(h, step.Final, step.SlewRate, step.Settle1, step.Overshoot)
			for _, p := range step.Points {
				hashFloats(h, p.T, p.V)
			}
		}
		noise, err := c.NoiseSweep("out", 1, 1e9, 10, mna.NoiseOpts{})
		if err != nil {
			hashErr(h, err)
		}
		for _, p := range noise {
			hashFloats(h, p.Freq, p.Svv)
		}
		y, err := experiment.MonteCarloYield(nl, task.Spec,
			experiment.YieldOpts{Samples: 32, Seed: 1, Workers: 1})
		if err != nil {
			hashErr(h, err)
			continue
		}
		names := make([]string, 0, len(y.Violations))
		for name := range y.Violations {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(h, "pass %d\n", y.Pass)
		for _, name := range names {
			fmt.Fprintf(h, "%s %d\n", name, y.Violations[name])
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != simulatorOutputsHash {
		t.Errorf("simulator outputs digest = %s, want %s", got, simulatorOutputsHash)
	}
}

// hashFloats writes the bits of each value.
func hashFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// hashRoots writes the bits of each root, or the error text.
func hashRoots(h hash.Hash64, roots []complex128, err error) {
	if err != nil {
		hashErr(h, err)
		return
	}
	fmt.Fprintf(h, "roots %d\n", len(roots))
	for _, r := range roots {
		hashFloats(h, real(r), imag(r))
	}
}

func hashErr(h hash.Hash64, err error) { fmt.Fprintf(h, "error %s\n", err) }
