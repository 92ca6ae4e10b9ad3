// Package measure extracts the opamp metrics the paper evaluates (§4.1.3)
// from a behavioral netlist: DC gain, gain-bandwidth product (unity-gain
// frequency), phase margin, gain margin, −3 dB bandwidth, and a power
// estimate derived from the stage transconductances via a gm/Id model.
// AC quantities come from the in-repo MNA simulator.
package measure

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"strings"

	"artisan/internal/mna"
	"artisan/internal/netlist"
	"artisan/internal/units"
)

// Sweep parameters used for metric extraction.
const (
	sweepStart     = 1e-2 // Hz
	sweepStop      = 1e10 // Hz
	sweepPerDecade = 24
)

// Report holds the extracted small-signal metrics.
type Report struct {
	DCGain   float64 // linear magnitude
	GainDB   float64 // 20·log10(DCGain)
	GBW      float64 // unity-gain frequency, Hz (0 if none)
	PM       float64 // phase margin, degrees (meaningful only if GBW > 0)
	GM       float64 // gain margin, dB (+Inf if phase never reaches −180°)
	F3dB     float64 // −3 dB bandwidth, Hz
	Power    float64 // W, from the gm/Id power model
	Stable   bool    // all poles strictly in the LHP
	NumPoles int
	// PoleZeroErr is non-empty when pole extraction failed (e.g. the root
	// finder did not converge). Stable=false with a non-empty PoleZeroErr
	// means "stability unknown", not "verified unstable" — previously the
	// two cases were indistinguishable.
	PoleZeroErr string
}

// String renders the report in a compact human-readable form.
func (r Report) String() string {
	s := fmt.Sprintf("Gain=%.1fdB GBW=%sHz PM=%.1f° Power=%sW stable=%v",
		r.GainDB, units.Format(r.GBW), r.PM, units.Format(r.Power), r.Stable)
	if r.PoleZeroErr != "" {
		s += fmt.Sprintf(" pz-error=%q", r.PoleZeroErr)
	}
	return s
}

// PowerModel converts stage transconductances to supply power. Stage
// devices are the VCCS elements of the behavioral netlist; the input
// (differential-pair) stage costs twice its branch current plus mirror
// overhead, common-source stages cost one branch current.
type PowerModel struct {
	VDD          float64 // supply voltage, V
	GmOverId     float64 // transconductance efficiency, S/A
	InputFactor  float64 // current multiplier for the input stage
	StageFactor  float64 // current multiplier for other gm stages
	BiasOverhead float64 // fixed bias-network current, A
	InputStage   string  // device name of the input stage VCCS
}

// DefaultPowerModel matches the paper's 1.8 V supply with moderate
// inversion devices.
func DefaultPowerModel() PowerModel {
	return PowerModel{
		VDD:          1.8,
		GmOverId:     16,
		InputFactor:  2,
		StageFactor:  1,
		BiasOverhead: 2e-6,
		InputStage:   "Gm1",
	}
}

// Power estimates the total supply power of the behavioral netlist,
// with device i's value multiplied by scale[i] (a Monte-Carlo sample's
// factors). A nil scale uses the values as they are.
func (pm PowerModel) Power(nl *netlist.Netlist, scale []float64) float64 {
	total := pm.BiasOverhead
	for i, d := range nl.Devices {
		if d.Kind != netlist.VCCS {
			continue
		}
		v := d.Value
		if scale != nil {
			v *= scale[i]
		}
		id := math.Abs(v) / pm.GmOverId
		if strings.EqualFold(d.Name, pm.InputStage) {
			total += pm.InputFactor * id
		} else {
			total += pm.StageFactor * id
		}
	}
	return pm.VDD * total
}

// Analyze runs the full metric extraction on a behavioral netlist with the
// given output node, using the default power model.
func Analyze(nl *netlist.Netlist, out string) (Report, error) {
	return AnalyzeContext(context.Background(), nl, out)
}

// AnalyzeContext is Analyze with context propagation: the MNA solves it
// performs (sweep, poles) emit telemetry spans when the context carries a
// tracer. No report field reads the transfer function's zeros, so none
// are found.
//
// The sweep is read in one pass. Each crossing test compares a point
// with the one before it, so only the previous point's frequency,
// magnitude and unwrapped phase are kept, and the sweep stops once the
// first −3 dB, unity-gain and −180° crossings are all found: no report
// field depends on a later point. A point past them is never solved, so
// a failure to solve it is no error, and a zero response at DC is
// reported at the first point, before any later point is solved.
func AnalyzeContext(ctx context.Context, nl *netlist.Netlist, out string) (Report, error) {
	c, err := mna.Compile(nl)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Power: DefaultPowerModel().Power(nl, nil), GM: math.Inf(1)}
	var (
		href              complex128 // H at DC: the phase reference
		f0, m0, ph0       float64    // the previous point's Hz, |H| and phase (°)
		unwrapped, target float64    // running phase (rad); DCGain/√2
		f3, unity, gm     bool       // which crossings are found
	)
	_, err = c.Sweep(ctx, out, sweepStart, sweepStop, sweepPerDecade, func(p mna.TFPoint) bool {
		first := href == 0
		if first {
			if p.H == 0 {
				return false
			}
			href = p.H
		}
		// Magnitude and phase relative to the DC response. The opamp may
		// be inverting; phase is referenced so φ(DC) = 0.
		m := cmplx.Abs(p.H)
		raw := cmplx.Phase(p.H / href)
		// unwrap against the previous point
		d := raw - math.Mod(unwrapped, 2*math.Pi)
		for d > math.Pi {
			d -= 2 * math.Pi
		}
		for d < -math.Pi {
			d += 2 * math.Pi
		}
		unwrapped += d
		ph := units.Deg(unwrapped)
		if first {
			rep.DCGain = m
			rep.GainDB = units.DB(m)
			target = rep.DCGain / math.Sqrt2
		} else {
			// −3 dB bandwidth: first crossing below DCGain/√2.
			if !f3 && m0 >= target && m < target {
				rep.F3dB = logInterp(f0, p.Freq, m0, m, target)
				f3 = true
			}
			// Unity-gain crossing.
			if !unity && m0 >= 1 && m < 1 {
				rep.GBW = logInterp(f0, p.Freq, m0, m, 1)
				// Phase at the crossing, linear in log f.
				t := math.Log(rep.GBW/f0) / math.Log(p.Freq/f0)
				phiU := ph0 + t*(ph-ph0)
				rep.PM = 180 + phiU
				unity = true
			}
			// Gain margin: gain in dB at the −180° phase crossing.
			if !gm && ph0 > -180 && ph <= -180 {
				t := (-180 - ph0) / (ph - ph0)
				lm := math.Log(m0) + t*(math.Log(m)-math.Log(m0))
				rep.GM = -units.DB(math.Exp(lm))
				gm = true
			}
		}
		f0, m0, ph0 = p.Freq, m, ph
		return !(f3 && unity && gm)
	})
	if err != nil {
		return Report{}, err
	}
	if href == 0 {
		return Report{}, fmt.Errorf("measure: zero response at DC")
	}

	// Stability via pole locations. A root-finder failure is surfaced in
	// PoleZeroErr rather than silently reported as "0 poles, unstable".
	poles, perr := c.Poles(ctx)
	if perr != nil {
		rep.PoleZeroErr = perr.Error()
	} else {
		rep.NumPoles = len(poles)
		rep.Stable = true
		for _, p := range poles {
			if real(p) >= 0 {
				rep.Stable = false
			}
		}
	}
	return rep, nil
}

// logInterp solves for the frequency where the magnitude (assumed locally
// log-log linear between two sweep points) crosses target.
func logInterp(f0, f1, m0, m1, target float64) float64 {
	l0, l1 := math.Log(m0), math.Log(m1)
	lt := math.Log(target)
	t := (lt - l0) / (l1 - l0)
	return math.Exp(math.Log(f0) + t*math.Log(f1/f0))
}
