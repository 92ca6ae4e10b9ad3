package measure_test

import (
	"errors"
	"math"
	"testing"

	"artisan/internal/bench"
	"artisan/internal/measure"
	"artisan/internal/mna"
)

// poolStep runs the default step characterization on entry i of
// perfbench circuit_sim's pool.
func poolStep(t *testing.T, i int) error {
	t.Helper()
	task, err := bench.NewTask(i, 1_000_003+7919*int64(i))
	if err != nil {
		t.Fatal(err)
	}
	_, err = measure.StepAnalyze(task.Netlist, "out", measure.DefaultStepOpts())
	return err
}

// TestStepNoGBWTyped: pool circuit 4 never crosses unity gain, so the
// step window cannot be sized.
func TestStepNoGBWTyped(t *testing.T) {
	err := poolStep(t, 4)
	if !errors.Is(err, measure.ErrNoGBW) {
		t.Fatalf("StepAnalyze error %v, want ErrNoGBW", err)
	}
	if err.Error() != "measure: cannot auto-size window (no GBW)" {
		t.Errorf("message %q changed", err)
	}
}

// TestStepNewtonTyped: pool circuit 22 slews beyond what the default
// Newton budget settles.
func TestStepNewtonTyped(t *testing.T) {
	err := poolStep(t, 22)
	if !errors.Is(err, mna.ErrNewtonNoConverge) {
		t.Fatalf("StepAnalyze error %v, want ErrNewtonNoConverge", err)
	}
	if errors.Is(err, mna.ErrSingular) {
		t.Errorf("%v also matches ErrSingular", err)
	}
}

// FuzzAnalyze drives the metric extraction over generated circuits: the
// seed picks a task as bench.NewTask does for the pool, and each input
// byte b scales one device by exp(int8(b)/32), a factor in [e^-4, e^4].
// AnalyzeContext runs on the scaled netlist and must agree with the
// full-sweep oracle bit for bit, and a Monte-Carlo session of the
// nominal design runs on the same scale factors. Neither may panic,
// and a nil error must come with finite GainDB, GBW, PM and Power. The
// checked-in corpus holds pool circuits 0, 4 (no GBW: the step window
// cannot be sized) and 22 (transient Newton does not converge).
func FuzzAnalyze(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, factors []byte) {
		task, err := bench.NewTask(0, seed)
		if err != nil {
			return // unmeasurable at nominal values
		}
		nl := task.Netlist
		scale := make([]float64, len(nl.Devices))
		drawn := nl.Clone()
		for i := range scale {
			scale[i] = 1
			if i < len(factors) {
				scale[i] = math.Exp(float64(int8(factors[i])) / 32)
			}
			drawn.Devices[i].Value *= scale[i]
		}
		if _, err := mna.Compile(drawn); err != nil {
			t.Fatalf("scaled netlist does not compile: %v", err)
		}
		finite := func(what string, rep measure.Report) {
			for _, v := range []float64{rep.GainDB, rep.GBW, rep.PM, rep.Power} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: nil error with non-finite metrics %+v", what, rep)
				}
			}
		}
		if rep, err := checkAnalyze(t, "AnalyzeContext", drawn); err == nil {
			finite("AnalyzeContext", rep)
		}
		a, err := measure.NewMCAnalyzer(nl, "out")
		if err != nil {
			t.Fatalf("NewMCAnalyzer on a measurable design: %v", err)
		}
		if rep, err := a.Session().Analyze(scale); err == nil {
			finite("MCSession.Analyze", rep)
		}
	})
}
