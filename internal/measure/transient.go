package measure

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"artisan/internal/mna"
	"artisan/internal/netlist"
	"artisan/internal/units"
)

// Large-signal characterization: slew rate and settling time from a
// closed-loop step response, using the transient engine with saturating
// transconductance stages. The classical large-signal figure of merit
// FoM_L = SR·CL/Power complements the paper's small-signal Eq. (6).

// ErrNoGBW reports that StepAnalyze could not size its window
// automatically: the open-loop response never crosses unity gain in the
// measured range.
var ErrNoGBW = errors.New("measure: cannot auto-size window (no GBW)")

// StepReport summarises one step response.
type StepReport struct {
	Final     float64 // settled output voltage, V
	SlewRate  float64 // max |dV/dt| during the transition, V/s
	Settle1   float64 // time to stay within ±1% of Final, s (0 if never)
	Overshoot float64 // peak excursion beyond Final, fraction of step
	Points    []mna.TranPoint
}

// String renders the report compactly.
func (r StepReport) String() string {
	return fmt.Sprintf("final=%sV SR=%sV/s settle1%%=%ss overshoot=%.1f%%",
		units.Format(r.Final), units.Format(r.SlewRate),
		units.Format(r.Settle1), r.Overshoot*100)
}

// UnityFeedback rewires a behavioral opamp netlist as a unity-gain buffer:
// the input stage's inverting control terminal moves from ground to the
// output node, closing the loop. The returned netlist is a deep copy.
func UnityFeedback(nl *netlist.Netlist, inputStage, out string) (*netlist.Netlist, error) {
	cl := nl.Clone()
	d := cl.Find(inputStage)
	if d == nil {
		return nil, fmt.Errorf("measure: input stage %q not found", inputStage)
	}
	if d.Kind != netlist.VCCS {
		return nil, fmt.Errorf("measure: input stage %q is not a VCCS", inputStage)
	}
	// The three-stage forward path (+, +, −) is inverting overall, so
	// negative feedback requires the output on the *non-inverting* ctrl
	// terminal: v_ctrl = v_out − v_in and V(out) ≈ −A·(v_out − v_in)
	// settles at v_in.
	d.Nodes[2], d.Nodes[3] = out, d.Nodes[2]
	cl.Title += " (unity feedback)"
	return cl, nil
}

// SatLimits derives per-stage maximum output currents from the power
// model: a class-A stage can deliver at most its bias current, and the
// differential input stage at most its tail current (2·Id).
func SatLimits(nl *netlist.Netlist, pm PowerModel) map[string]float64 {
	out := map[string]float64{}
	for _, d := range nl.Devices {
		if d.Kind != netlist.VCCS {
			continue
		}
		id := math.Abs(d.Value) / pm.GmOverId
		if strings.EqualFold(d.Name, pm.InputStage) {
			out[d.Name] = pm.InputFactor * id
		} else {
			out[d.Name] = id
		}
	}
	return out
}

// StepOpts configures the closed-loop step characterization.
type StepOpts struct {
	StepV      float64 // input step amplitude, V
	TEnd       float64 // observation window, s (0 = auto from GBW)
	Dt         float64 // timestep, s (0 = auto)
	InputStage string  // defaults to "Gm1"
	Linear     bool    // skip saturation limits (pure small-signal step)
	Power      PowerModel
}

// DefaultStepOpts characterizes a 0.5 V step (large enough to slew a
// typical design).
func DefaultStepOpts() StepOpts {
	return StepOpts{StepV: 0.5, InputStage: "Gm1", Power: DefaultPowerModel()}
}

// StepAnalyze closes the loop around the opamp netlist (unity feedback),
// applies a voltage step, and extracts slew rate, settling and overshoot.
// The netlist must contain an excitation source "Vin" driving the input
// stage and an output node named out.
func StepAnalyze(nl *netlist.Netlist, out string, opts StepOpts) (StepReport, error) {
	if opts.InputStage == "" {
		opts.InputStage = "Gm1"
	}
	if opts.StepV <= 0 {
		return StepReport{}, fmt.Errorf("measure: non-positive step %g", opts.StepV)
	}
	fb, err := UnityFeedback(nl, opts.InputStage, out)
	if err != nil {
		return StepReport{}, err
	}
	// Scale the excitation to the requested step.
	if v := fb.Find("Vin"); v != nil {
		v.Value = opts.StepV
	} else {
		return StepReport{}, fmt.Errorf("measure: netlist has no Vin source")
	}
	c, err := mna.Compile(fb)
	if err != nil {
		return StepReport{}, err
	}

	// Auto window: ~60 closed-loop time constants (closed-loop pole near
	// the GBW), capped for slew-dominated responses. Only the open-loop
	// GBW is needed to size the window, so a bisection probe replaces the
	// full sweep-plus-root-find analysis; trapezoidal integration is
	// second order, and τ/16 keeps the slew phase resolved by ~50 steps
	// while leaving the settling metrics within their tolerances.
	tEnd, dt := opts.TEnd, opts.Dt
	if tEnd == 0 || dt == 0 {
		ol, err := mna.Compile(nl)
		if err != nil {
			return StepReport{}, err
		}
		gbw, err := bisectGBW(ol, out, 0, math.NaN())
		if err != nil {
			return StepReport{}, err
		}
		if gbw <= 0 {
			return StepReport{}, ErrNoGBW
		}
		tau := 1 / (2 * math.Pi * gbw)
		if tEnd == 0 {
			tEnd = 60 * tau
		}
		if dt == 0 {
			dt = tau / 16
		}
	}

	tr := mna.TranOpts{TEnd: tEnd, Dt: dt}
	if !opts.Linear {
		tr.SatLimits = SatLimits(fb, opts.Power)
	}
	pts, err := c.Transient(out, tr)
	if err != nil {
		return StepReport{}, err
	}
	return stepMetrics(pts, opts.StepV), nil
}

// stepMetrics extracts the report from a waveform.
func stepMetrics(pts []mna.TranPoint, stepV float64) StepReport {
	r := StepReport{Points: pts}
	if len(pts) < 3 {
		return r
	}
	// Final value: mean of the last 2% of samples.
	tail := len(pts) / 50
	if tail < 1 {
		tail = 1
	}
	sum := 0.0
	for _, p := range pts[len(pts)-tail:] {
		sum += p.V
	}
	r.Final = sum / float64(tail)

	peak := 0.0
	for i := 1; i < len(pts); i++ {
		s := math.Abs(pts[i].V-pts[i-1].V) / (pts[i].T - pts[i-1].T)
		if s > r.SlewRate {
			r.SlewRate = s
		}
		exc := (pts[i].V - r.Final) * sign(r.Final)
		if exc > peak {
			peak = exc
		}
	}
	if stepV > 0 {
		r.Overshoot = peak / stepV
	}
	// Settling: last time the waveform was outside ±1% of Final.
	band := 0.01 * math.Abs(r.Final)
	if band == 0 {
		band = 0.01 * stepV
	}
	for i := len(pts) - 1; i >= 0; i-- {
		if math.Abs(pts[i].V-r.Final) > band {
			if i+1 < len(pts) {
				r.Settle1 = pts[i+1].T
			} else {
				r.Settle1 = 0 // never settled inside the window
			}
			break
		}
	}
	return r
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

// FoMLarge computes the large-signal figure of merit SR[V/µs]·CL[pF]/Power[mW].
func FoMLarge(slewRate, clF, powerW float64) float64 {
	if powerW <= 0 {
		return 0
	}
	return (slewRate / 1e6) * (clF / 1e-12) / (powerW / 1e-3)
}
