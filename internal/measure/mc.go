package measure

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"artisan/internal/mna"
	"artisan/internal/netlist"
)

// Monte-Carlo fast path: spec-directed re-measurement of a perturbed
// design without re-compiling, re-sweeping, or cold-starting the root
// finder. A full Analyze runs a 289-point sweep plus two cold Aberth
// root finds per sample; yield analysis only consumes the five fields
// spec.Check reads (GainDB, GBW, PM, Power, Stable), and every sample is
// a small perturbation of one nominal design. MCAnalyzer exploits both:
//
//   - the netlist is compiled once; each sample re-stamps matrix values
//     through Circuit.Restamped (shared node index and degree memo);
//   - DC gain is one solve at the sweep's DC anchor frequency;
//   - GBW is a log-domain bisection for the unity crossing, bracketed
//     around the nominal design's GBW;
//   - PM is the direct phase of H(GBW)/H(DC) (no unwrapping sweep);
//   - stability is a warm Aberth polish of the nominal pole positions
//     (mna.StableNear) with a sign-certainty early exit;
//   - power scales the nominal gm values by the sample's factors.
//
// Whenever a fast classification is not certain — the polish does not
// settle, a pole's sign is ambiguous — the sample transparently falls
// back to the full Analyze on a scaled netlist clone. Every step depends
// only on the sample's scale factors, so results are deterministic and
// independent of how samples are distributed over workers.

// mcGBWRelTol is the bisection's relative frequency tolerance — tighter
// than the 24-points-per-decade grid interpolation it replaces.
const mcGBWRelTol = 1e-4

// MCAnalyzer is the per-design state shared by all Monte-Carlo workers:
// the compiled nominal circuit, its nominal GBW (bisection bracket hint),
// and its nominal poles (warm-start seeds for stability).
type MCAnalyzer struct {
	nl    *netlist.Netlist
	out   string
	base  *mna.Circuit
	gbw0  float64
	seeds []complex128 // nil → every sample uses the full fallback
}

// NewMCAnalyzer compiles the nominal design and captures the warm-start
// state. A nominal root-find failure is not fatal: samples then skip the
// fast stability path and fall back to the full analysis.
func NewMCAnalyzer(nl *netlist.Netlist, out string) (*MCAnalyzer, error) {
	base, err := mna.Compile(nl)
	if err != nil {
		return nil, err
	}
	a := &MCAnalyzer{nl: nl, out: out, base: base}
	if _, err := base.NodeIndex(out); err != nil {
		return nil, err
	}
	a.gbw0, _ = bisectGBW(base, out, 0)
	if poles, err := base.Poles(context.Background()); err == nil {
		a.seeds = poles
	}
	return a, nil
}

// Session returns a single-goroutine measurement context: it owns one
// restamp-target circuit, reused across samples, so steady-state sampling
// performs no compilation and near-zero allocation. Each Monte-Carlo
// worker gets its own Session.
func (a *MCAnalyzer) Session() *MCSession {
	return &MCSession{a: a}
}

// MCSession is the per-worker scratch of an MCAnalyzer.
type MCSession struct {
	a    *MCAnalyzer
	circ *mna.Circuit
}

// Analyze measures one sample: scale[i] multiplies device i's nominal
// value. The returned report carries exactly the spec-checked metrics
// (GainDB, GBW, PM, Power, Stable); secondary fields (F3dB, GM, pole and
// zero counts) are only populated when the sample took the full-analysis
// fallback.
func (s *MCSession) Analyze(scale []float64) (Report, error) {
	circ, err := s.a.base.Restamped(scale, s.circ)
	if err != nil {
		return Report{}, err
	}
	s.circ = circ

	var rep Report
	rep.Power = s.scaledPower(scale)

	href, err := circ.VoltageAt(s.a.out, mna.Omega(sweepStart))
	if err != nil {
		return Report{}, err
	}
	dc := cmplx.Abs(href)
	if dc == 0 {
		return Report{}, fmt.Errorf("measure: zero response at DC")
	}
	rep.DCGain = dc
	rep.GainDB = 20 * math.Log10(dc)
	rep.GM = math.Inf(1)

	rep.GBW, err = bisectGBW(circ, s.a.out, s.a.gbw0)
	if err != nil {
		return Report{}, err
	}
	if rep.GBW > 0 {
		hu, err := circ.VoltageAt(s.a.out, mna.Omega(rep.GBW))
		if err != nil {
			return Report{}, err
		}
		// Direct phase relative to DC, assuming the unwrapped phase at the
		// unity crossing lies in (−360°, 0°] — true for the cascade
		// responses this model produces. PM values then land in
		// (−180°, 180°].
		phi := cmplx.Phase(hu/href) * 180 / math.Pi
		rep.PM = 180 + phi
		if rep.PM > 180 {
			rep.PM -= 360
		}
	}

	if s.a.seeds != nil {
		if stable, ok := circ.StableNear(s.a.seeds); ok {
			rep.Stable = stable
			rep.NumPoles = len(s.a.seeds)
			return rep, nil
		}
	}
	// Uncertain classification: run the full pipeline on a scaled clone.
	return Analyze(s.scaledNetlist(scale), s.a.out)
}

// scaledPower evaluates the power model on the perturbed gm values.
func (s *MCSession) scaledPower(scale []float64) float64 {
	pm := DefaultPowerModel()
	total := pm.BiasOverhead
	for i, d := range s.a.nl.Devices {
		if d.Kind != netlist.VCCS {
			continue
		}
		id := math.Abs(d.Value*scale[i]) / pm.GmOverId
		if equalFold(d.Name, pm.InputStage) {
			total += pm.InputFactor * id
		} else {
			total += pm.StageFactor * id
		}
	}
	return pm.VDD * total
}

// scaledNetlist materializes the sample as a netlist clone for the
// full-analysis fallback.
func (s *MCSession) scaledNetlist(scale []float64) *netlist.Netlist {
	mc := s.a.nl.Clone()
	for i := range mc.Devices {
		mc.Devices[i].Value *= scale[i]
	}
	return mc
}

// bisectGBW finds the unity-gain frequency of V(out) by root-finding on
// log|H| in log-frequency over [sweepStart, sweepStop] — the same range
// Analyze sweeps, so "no crossing" agrees between the two paths. hint,
// when positive, seeds the bracket around a nearby known crossing (the
// nominal GBW); sampling perturbations rarely move the crossing outside
// hint/4…4·hint, and when they do the bracket falls back to a full
// geometric scan. Inside the bracket an Illinois false-position iteration
// exploits that log|H| is near-linear in log f (a straight Bode slope),
// settling in a handful of solves where plain bisection needs ~15.
// Returns 0 when the response never crosses unity in range.
func bisectGBW(c *mna.Circuit, out string, hint float64) (float64, error) {
	var solveErr error
	gainAt := func(f float64) float64 {
		v, err := c.VoltageAt(out, mna.Omega(f))
		if err != nil && solveErr == nil {
			solveErr = fmt.Errorf("measure: gbw probe at %g Hz: %w", f, err)
		}
		return math.Log(cmplx.Abs(v)) // >0 above unity, <=0 at/below
	}
	if gainAt(sweepStart) <= 0 {
		return 0, solveErr // no gain to begin with
	}
	lo, hi := sweepStart, 0.0
	var glo, ghi float64
	if hint > 0 {
		hl, hh := hint/4, hint*4
		if hl > sweepStart && hh < sweepStop {
			gl, gh := gainAt(hl), gainAt(hh)
			if gl > 0 && gh <= 0 {
				lo, hi, glo, ghi = hl, hh, gl, gh
			}
		}
	}
	if hi == 0 {
		glo = gainAt(lo)
		for f := sweepStart * 10; f <= sweepStop; f *= 10 {
			g := gainAt(f)
			if g <= 0 {
				hi, ghi = f, g
				break
			}
			lo, glo = f, g
		}
		if hi == 0 {
			g := gainAt(sweepStop)
			if g > 0 {
				return 0, solveErr // still above unity at the sweep edge
			}
			hi, ghi = sweepStop, g
		}
	}
	llo, lhi := math.Log(lo), math.Log(hi)
	side := 0
	for i := 0; i < 60 && lhi-llo > mcGBWRelTol; i++ {
		mid := (llo + lhi) / 2
		if d := glo - ghi; d > 0 {
			if fp := llo + (lhi-llo)*glo/d; fp > llo && fp < lhi {
				mid = fp
			}
		}
		g := gainAt(math.Exp(mid))
		if g > 0 {
			llo, glo = mid, g
			if side == 1 {
				ghi *= 0.5 // Illinois: unstick a stalled endpoint
			}
			side = 1
		} else {
			lhi, ghi = mid, g
			if side == -1 {
				glo *= 0.5
			}
			side = -1
		}
	}
	if solveErr != nil {
		return 0, solveErr
	}
	return math.Exp((llo + lhi) / 2), nil
}

// equalFold is strings.EqualFold without the import churn for one call.
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
