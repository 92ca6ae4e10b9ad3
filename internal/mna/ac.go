package mna

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"artisan/internal/telemetry"
)

// TFPoint is one point of a swept transfer function.
type TFPoint struct {
	Freq float64    // Hz
	H    complex128 // V(out) per unit excitation
}

// Sweep solves the transfer function V(out) over a logarithmic frequency
// sweep from fStart to fStop (Hz) with the given points per decade and
// hands each point to visit, in order of increasing frequency. The
// excitation is the netlist's independent sources (normally a single 1 V
// AC source), so H is V(out) directly. The points are solved one at a
// time in the circuit's scratch; the sweep stops after the first point
// for which visit returns false, or at the first frequency that fails to
// solve, which is the one reported. It returns the number of points
// solved and handed to visit. When ctx carries a tracer the sweep is
// recorded as an "mna.sweep" span with the matrix size and that count.
func (c *Circuit) Sweep(ctx context.Context, out string, fStart, fStop float64, perDecade int, visit func(TFPoint) bool) (int, error) {
	_, span := telemetry.StartSpan(ctx, "mna.sweep")
	defer span.End()
	n, err := c.sweep(out, fStart, fStop, perDecade, visit)
	if span != nil { // untraced sweeps skip formatting the attributes
		span.SetAttr("size", strconv.Itoa(c.Size()))
		span.SetAttr("points", strconv.Itoa(n))
	}
	return n, err
}

// sweep is Sweep without the span.
func (c *Circuit) sweep(out string, fStart, fStop float64, perDecade int, visit func(TFPoint) bool) (int, error) {
	// Negated so NaN fails; the ratio bound rejects +Inf and a range
	// whose fStop/fStart overflows.
	if !(fStart > 0 && fStop > fStart && fStop/fStart <= math.MaxFloat64) {
		return 0, fmt.Errorf("mna: bad sweep range [%g, %g]", fStart, fStop)
	}
	if perDecade < 1 {
		return 0, fmt.Errorf("mna: perDecade must be >= 1")
	}
	j, err := c.NodeIndex(out)
	if err != nil {
		return 0, err
	}
	freqs := sweepGrid(fStart, fStop, perDecade)
	for i, f := range freqs {
		x, err := c.SolveAt(Omega(f))
		if err != nil {
			return i, fmt.Errorf("mna: sweep at %g Hz: %w", f, err)
		}
		if !visit(TFPoint{Freq: f, H: x[j]}) {
			return i + 1, nil
		}
	}
	return len(freqs), nil
}

// maxSweepGrids bounds the grid memo: mna is a library, and callers may
// sweep arbitrary ranges.
const maxSweepGrids = 16

// sweepGrids memoizes logFreqs per (fStart, fStop, perDecade). Every
// measure.Analyze sweeps the same 289-point grid, and its Pow calls cost
// more than the grid's memory. The first maxSweepGrids keys are stored;
// later ones are computed without storing. Callers only read the slices.
var sweepGrids struct {
	mu sync.Mutex
	m  map[gridKey][]float64
}

type gridKey struct {
	fStart, fStop float64
	perDecade     int
}

// sweepGrid returns logFreqs(fStart, fStop, perDecade), shared and
// read-only.
func sweepGrid(fStart, fStop float64, perDecade int) []float64 {
	k := gridKey{fStart, fStop, perDecade}
	sweepGrids.mu.Lock()
	g, ok := sweepGrids.m[k]
	sweepGrids.mu.Unlock()
	if ok {
		return g
	}
	g = logFreqs(fStart, fStop, perDecade)
	sweepGrids.mu.Lock()
	if sweepGrids.m == nil {
		sweepGrids.m = make(map[gridKey][]float64, maxSweepGrids)
	}
	if len(sweepGrids.m) < maxSweepGrids {
		sweepGrids.m[k] = g
	}
	sweepGrids.mu.Unlock()
	return g
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
