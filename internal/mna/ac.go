package mna

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"

	"artisan/internal/telemetry"
)

// TFPoint is one point of a swept transfer function.
type TFPoint struct {
	Freq float64    // Hz
	H    complex128 // V(out) per unit excitation
}

// Sweeps shorter than this stay serial: goroutine startup would cost more
// than the handful of small LU factorizations it saves.
const parallelSweepMin = 32

// Sweep computes the transfer function V(out) over a logarithmic frequency
// sweep from fStart to fStop (Hz) with the given points per decade. The
// excitation is the netlist's independent sources (normally a single 1 V
// AC source), so H is V(out) directly. Sweeps long enough to amortize the
// startup are partitioned across GOMAXPROCS workers, each with its own
// Workspace; the output is byte-identical to the serial path. When ctx
// carries a tracer the sweep is recorded as an "mna.sweep" span with the
// matrix size and point count.
func (c *Circuit) Sweep(ctx context.Context, out string, fStart, fStop float64, perDecade int) ([]TFPoint, error) {
	_, span := telemetry.StartSpan(ctx, "mna.sweep")
	defer span.End()
	pts, err := c.SweepParallel(out, fStart, fStop, perDecade, 0)
	if span != nil { // untraced sweeps skip formatting the attributes
		span.SetAttr("size", strconv.Itoa(c.Size()))
		span.SetAttr("points", strconv.Itoa(len(pts)))
	}
	return pts, err
}

// SweepParallel is Sweep with an explicit worker count: 0 means
// GOMAXPROCS, 1 forces the serial path. Every point is an independent
// deterministic solve, so the result does not depend on workers.
func (c *Circuit) SweepParallel(out string, fStart, fStop float64, perDecade, workers int) ([]TFPoint, error) {
	// Negated so NaN fails; the ratio bound rejects +Inf and a range
	// whose fStop/fStart overflows.
	if !(fStart > 0 && fStop > fStart && fStop/fStart <= math.MaxFloat64) {
		return nil, fmt.Errorf("mna: bad sweep range [%g, %g]", fStart, fStop)
	}
	if perDecade < 1 {
		return nil, fmt.Errorf("mna: perDecade must be >= 1")
	}
	j, err := c.NodeIndex(out)
	if err != nil {
		return nil, err
	}
	freqs := logFreqs(fStart, fStop, perDecade)
	pts := make([]TFPoint, len(freqs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(freqs) {
		workers = len(freqs)
	}

	solveRange := func(w *Workspace, lo, hi int) error {
		for i := lo; i < hi; i++ {
			f := freqs[i]
			x, err := w.SolveAt(Omega(f))
			if err != nil {
				return fmt.Errorf("mna: sweep at %g Hz: %w", f, err)
			}
			pts[i] = TFPoint{Freq: f, H: x[j]}
		}
		return nil
	}

	if workers == 1 || len(freqs) < parallelSweepMin {
		w := c.workspace()
		defer c.release(w)
		if err := solveRange(w, 0, len(freqs)); err != nil {
			return nil, err
		}
		return pts, nil
	}

	// Contiguous chunks; per-worker error slots keep the reported error
	// deterministic (the lowest failing frequency, as in the serial path).
	errs := make([]error, workers)
	chunk := (len(freqs) + workers - 1) / workers
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		lo := wk * chunk
		hi := min(lo+chunk, len(freqs))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(wk, lo, hi int) {
			defer wg.Done()
			w := c.workspace()
			defer c.release(w)
			errs[wk] = solveRange(w, lo, hi)
		}(wk, lo, hi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return pts, nil
}

// logFreqs lists the sweep frequencies: log-spaced at perDecade points per
// decade, clamped so the last point is exactly fStop.
func logFreqs(fStart, fStop float64, perDecade int) []float64 {
	decades := math.Log10(fStop / fStart)
	n := int(math.Ceil(decades*float64(perDecade))) + 1
	freqs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		f := fStart * math.Pow(10, float64(i)/float64(perDecade))
		if f > fStop {
			f = fStop
		}
		freqs = append(freqs, f)
		if f == fStop {
			break
		}
	}
	return freqs
}

// TFAt returns V(out) at one frequency in Hz.
func (c *Circuit) TFAt(out string, freqHz float64) (complex128, error) {
	return c.VoltageAt(out, Omega(freqHz))
}
