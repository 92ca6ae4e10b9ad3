package mna

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"artisan/internal/telemetry"
)

// TFPoint is one point of a swept transfer function.
type TFPoint struct {
	Freq float64    // Hz
	H    complex128 // V(out) per unit excitation
}

// Sweep computes the transfer function V(out) over a logarithmic frequency
// sweep from fStart to fStop (Hz) with the given points per decade. The
// excitation is the netlist's independent sources (normally a single 1 V
// AC source), so H is V(out) directly. The points are solved in order on
// one pooled Workspace, and the first failing frequency is the one
// reported. When ctx carries a tracer the sweep is recorded as an
// "mna.sweep" span with the matrix size and point count.
func (c *Circuit) Sweep(ctx context.Context, out string, fStart, fStop float64, perDecade int) ([]TFPoint, error) {
	_, span := telemetry.StartSpan(ctx, "mna.sweep")
	defer span.End()
	pts, err := c.sweep(out, fStart, fStop, perDecade)
	if span != nil { // untraced sweeps skip formatting the attributes
		span.SetAttr("size", strconv.Itoa(c.Size()))
		span.SetAttr("points", strconv.Itoa(len(pts)))
	}
	return pts, err
}

// sweep is Sweep without the span.
func (c *Circuit) sweep(out string, fStart, fStop float64, perDecade int) ([]TFPoint, error) {
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
	w := c.workspace()
	defer c.release(w)
	for i, f := range freqs {
		x, err := w.SolveAt(Omega(f))
		if err != nil {
			return nil, fmt.Errorf("mna: sweep at %g Hz: %w", f, err)
		}
		pts[i] = TFPoint{Freq: f, H: x[j]}
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
