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
	NumZeros int
	// PoleZeroErr is non-empty when pole/zero extraction failed (e.g. the
	// root finder did not converge). Stable=false with a non-empty
	// PoleZeroErr means "stability unknown", not "verified unstable" —
	// previously the two cases were indistinguishable.
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

// Power estimates the total supply power of the behavioral netlist.
func (pm PowerModel) Power(nl *netlist.Netlist) float64 {
	total := pm.BiasOverhead
	for _, d := range nl.Devices {
		if d.Kind != netlist.VCCS {
			continue
		}
		id := math.Abs(d.Value) / pm.GmOverId
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
// performs (sweep, poles, zeros) emit telemetry spans when the context
// carries a tracer.
func AnalyzeContext(ctx context.Context, nl *netlist.Netlist, out string) (Report, error) {
	c, err := mna.Compile(nl)
	if err != nil {
		return Report{}, err
	}
	pts, err := c.Sweep(ctx, out, sweepStart, sweepStop, sweepPerDecade)
	if err != nil {
		return Report{}, err
	}
	if len(pts) < 2 {
		return Report{}, fmt.Errorf("measure: sweep too short")
	}

	rep := Report{Power: DefaultPowerModel().Power(nl)}

	// Magnitudes and unwrapped phase relative to the DC response. The
	// opamp may be inverting; phase is referenced so φ(DC) = 0.
	href := pts[0].H
	if href == 0 {
		return Report{}, fmt.Errorf("measure: zero response at DC")
	}
	mags := make([]float64, len(pts))
	phase := make([]float64, len(pts))
	prev := 0.0
	for i, p := range pts {
		mags[i] = cmplx.Abs(p.H)
		raw := cmplx.Phase(p.H / href)
		// unwrap against previous point
		d := raw - math.Mod(prev, 2*math.Pi)
		for d > math.Pi {
			d -= 2 * math.Pi
		}
		for d < -math.Pi {
			d += 2 * math.Pi
		}
		prev += d
		phase[i] = units.Deg(prev)
	}

	rep.DCGain = mags[0]
	rep.GainDB = units.DB(mags[0])

	// −3 dB bandwidth: first crossing below DCGain/√2.
	target := rep.DCGain / math.Sqrt2
	for i := 1; i < len(pts); i++ {
		if mags[i-1] >= target && mags[i] < target {
			rep.F3dB = logInterp(pts[i-1].Freq, pts[i].Freq, mags[i-1], mags[i], target)
			break
		}
	}

	// Unity-gain crossing.
	for i := 1; i < len(pts); i++ {
		if mags[i-1] >= 1 && mags[i] < 1 {
			rep.GBW = logInterp(pts[i-1].Freq, pts[i].Freq, mags[i-1], mags[i], 1)
			// Phase at the crossing, linear in log f.
			t := math.Log(rep.GBW/pts[i-1].Freq) / math.Log(pts[i].Freq/pts[i-1].Freq)
			phiU := phase[i-1] + t*(phase[i]-phase[i-1])
			rep.PM = 180 + phiU
			break
		}
	}

	// Gain margin: gain in dB at the −180° phase crossing.
	rep.GM = math.Inf(1)
	for i := 1; i < len(pts); i++ {
		if phase[i-1] > -180 && phase[i] <= -180 {
			t := (-180 - phase[i-1]) / (phase[i] - phase[i-1])
			lm := math.Log(mags[i-1]) + t*(math.Log(mags[i])-math.Log(mags[i-1]))
			rep.GM = -units.DB(math.Exp(lm))
			break
		}
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
	zeros, zerr := c.Zeros(ctx, out)
	switch {
	case zerr != nil:
		if rep.PoleZeroErr == "" {
			rep.PoleZeroErr = zerr.Error()
		}
	default:
		rep.NumZeros = len(zeros)
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
