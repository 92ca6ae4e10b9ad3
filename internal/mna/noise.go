package mna

import (
	"fmt"
	"math"
	"math/cmplx"

	"artisan/internal/netlist"
)

// Noise analysis: output noise power spectral density by superposition of
// thermal sources. Every resistor contributes a 4kT/R current source in
// parallel; every transconductor contributes 4kTγ·gm of channel noise at
// its output. At each frequency one LU factorization serves all sources,
// and each distinct injection node pair needs a single extra solve.

// Boltzmann constant (J/K).
const kB = 1.380649e-23

// NoiseOpts configures the analysis.
type NoiseOpts struct {
	TempK float64 // device temperature (default 300 K)
	Gamma float64 // channel-noise factor for VCCS devices (default 2/3)
}

// NoisePoint is the output noise density at one frequency.
type NoisePoint struct {
	Freq float64 // Hz
	Svv  float64 // output noise PSD, V²/Hz
}

// noiseSource is one independent thermal generator: a current source of
// PSD si (A²/Hz) between two matrix nodes.
type noiseSource struct {
	a, b int // injection nodes (-1 = ground)
	si   float64
}

func (c *Circuit) noiseSources(opts NoiseOpts) []noiseSource {
	var out []noiseSource
	idx := func(node string) int {
		if node == netlist.Ground {
			return -1
		}
		return c.nodeIdx[node]
	}
	for _, d := range c.nl.Devices {
		switch d.Kind {
		case netlist.Resistor:
			out = append(out, noiseSource{
				a: idx(d.Nodes[0]), b: idx(d.Nodes[1]),
				si: 4 * kB * opts.TempK / d.Value,
			})
		case netlist.VCCS:
			out = append(out, noiseSource{
				a: idx(d.Nodes[0]), b: idx(d.Nodes[1]),
				si: 4 * kB * opts.TempK * opts.Gamma * math.Abs(d.Value),
			})
		}
	}
	return out
}

// NoiseAt computes the output noise PSD at node out for one frequency.
func (c *Circuit) NoiseAt(out string, freqHz float64, opts NoiseOpts) (float64, error) {
	pts, err := c.NoiseSweep(out, freqHz, freqHz, 1, opts)
	if err != nil {
		return 0, err
	}
	return pts[0].Svv, nil
}

// NoiseSweep computes the output noise PSD over a log frequency sweep.
func (c *Circuit) NoiseSweep(out string, fStart, fStop float64, perDecade int, opts NoiseOpts) ([]NoisePoint, error) {
	if opts.TempK <= 0 {
		opts.TempK = 300
	}
	if opts.Gamma <= 0 {
		opts.Gamma = 2.0 / 3.0
	}
	j, err := c.NodeIndex(out)
	if err != nil {
		return nil, err
	}
	// Negated so NaN fails; the ratio bound rejects +Inf and a range
	// whose fStop/fStart overflows.
	if !(fStart > 0 && fStop >= fStart && fStop/fStart <= math.MaxFloat64) || perDecade < 1 {
		return nil, fmt.Errorf("mna: bad noise sweep [%g, %g] @%d", fStart, fStop, perDecade)
	}
	sources := c.noiseSources(opts)
	if len(sources) == 0 {
		return nil, fmt.Errorf("mna: circuit has no noise sources")
	}

	var freqs []float64
	if fStart == fStop {
		freqs = []float64{fStart}
	} else {
		freqs = sweepGrid(fStart, fStop, perDecade)
	}

	// Sources on the same unordered node pair {a, b} share |H|²: the
	// injection b→a is exactly −rhs of a→b, and negating the right-hand
	// side negates every nonzero of the LU solve exactly (rounding is
	// symmetric), so |x[j]| is identical. Each pair is solved once per
	// frequency, by its first source, and total still adds h²·si in
	// source order, so it rounds as one solve per source would.
	var pairBuf, firstBuf [32]int
	var hhBuf [32]float64
	pair, first := pairBuf[:0], firstBuf[:0] // source → pair, pair → first source
	for k, s := range sources {
		p := 0
		for p < len(first) && !samePair(sources[first[p]], s) {
			p++
		}
		if p == len(first) {
			first = append(first, k)
		}
		pair = append(pair, p)
	}
	hh := hhBuf[:] // |H|² per pair at the current frequency
	if len(first) > len(hh) {
		hh = make([]float64, len(first))
	}

	// Each frequency is a single in-place factorization, each pair one
	// allocation-free solve in the circuit's scratch; the solution lands
	// in the vector SolveAt returns.
	if c.rhs == nil {
		c.rhs = make([]complex128, c.Size())
	}
	rhs := c.rhs
	pts := make([]NoisePoint, 0, len(freqs))
	for _, f := range freqs {
		lu := c.factorAt(Omega(f))
		if !lu.OK() {
			return nil, singularf("mna: singular at %g Hz", f)
		}
		total := 0.0
		for k, s := range sources {
			p := pair[k]
			if first[p] == k {
				for i := range rhs {
					rhs[i] = 0
				}
				// Unit current from a to b through the generator injects
				// −1 at a and +1 at b (matches the ISource stamp
				// convention).
				if s.a >= 0 {
					rhs[s.a] -= 1
				}
				if s.b >= 0 {
					rhs[s.b] += 1
				}
				if err := lu.SolveInto(c.x, rhs); err != nil {
					return nil, err
				}
				h := cmplx.Abs(c.x[j])
				hh[p] = h * h
			}
			total += hh[p] * s.si
		}
		pts = append(pts, NoisePoint{Freq: f, Svv: total})
	}
	return pts, nil
}

// samePair reports whether two sources inject at the same unordered node
// pair.
func samePair(s, t noiseSource) bool {
	return s.a == t.a && s.b == t.b || s.a == t.b && s.b == t.a
}

// IntegratedNoise integrates the output noise PSD over [fStart, fStop]
// using trapezoidal integration on the swept points, returning the RMS
// output noise voltage in V.
func (c *Circuit) IntegratedNoise(out string, fStart, fStop float64, opts NoiseOpts) (float64, error) {
	pts, err := c.NoiseSweep(out, fStart, fStop, 40, opts)
	if err != nil {
		return 0, err
	}
	power := 0.0
	for i := 1; i < len(pts); i++ {
		df := pts[i].Freq - pts[i-1].Freq
		power += 0.5 * (pts[i].Svv + pts[i-1].Svv) * df
	}
	return math.Sqrt(power), nil
}
