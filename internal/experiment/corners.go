package experiment

import (
	"context"
	"fmt"
	"strings"

	"artisan/internal/jobs"
	"artisan/internal/measure"
	"artisan/internal/spec"
	"artisan/internal/topology"
)

// Process-corner analysis: re-evaluate a finished topology under the
// canonical fast/slow device corners. Corners scale the *model*
// quantities (transconductance per bias, transit frequency, intrinsic
// gain) rather than individual elements, complementing the per-device
// Monte-Carlo mismatch of yield.go.

// Corner scales the behavioral device model.
type Corner struct {
	Name    string
	GmScale float64 // transconductance at fixed bias
	FTScale float64 // transit frequency (parasitic capacitance shrinks as FT grows)
	A0Scale float64 // intrinsic gain
}

// StandardCorners returns the canonical five-corner set.
func StandardCorners() []Corner {
	return []Corner{
		{Name: "TT", GmScale: 1.00, FTScale: 1.00, A0Scale: 1.00},
		{Name: "FF", GmScale: 1.10, FTScale: 1.30, A0Scale: 0.88},
		{Name: "SS", GmScale: 0.90, FTScale: 0.75, A0Scale: 1.12},
		{Name: "FS", GmScale: 1.05, FTScale: 1.10, A0Scale: 0.95},
		{Name: "SF", GmScale: 0.95, FTScale: 0.90, A0Scale: 1.05},
	}
}

// CornerResult is one corner's measurement.
type CornerResult struct {
	Corner Corner
	Report measure.Report
	Pass   bool
}

// CornersReport aggregates the sweep.
type CornersReport struct {
	Results []CornerResult
}

// String renders a compact corner table.
func (r CornersReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %9s %10s %8s %10s %6s\n", "corn", "Gain(dB)", "GBW(MHz)", "PM(°)", "Power(µW)", "pass")
	for _, c := range r.Results {
		fmt.Fprintf(&b, "%-4s %9.1f %10.3f %8.2f %10.1f %6v\n",
			c.Corner.Name, c.Report.GainDB, c.Report.GBW/1e6, c.Report.PM,
			c.Report.Power*1e6, c.Pass)
	}
	return b.String()
}

// runCorner evaluates one corner against the spec. Each corner works on
// its own topology clone and compiled circuit, so corners are independent
// and safe to evaluate concurrently.
func runCorner(topo *topology.Topology, sp spec.Spec, cn Corner) (CornerResult, error) {
	if cn.GmScale <= 0 || cn.FTScale <= 0 || cn.A0Scale <= 0 {
		return CornerResult{}, fmt.Errorf("experiment: corner %q has non-positive scale", cn.Name)
	}
	tp := topo.Clone()
	for i := range tp.Stages {
		tp.Stages[i].Gm *= cn.GmScale
		tp.Stages[i].A0 *= cn.A0Scale
	}
	for i := range tp.Conns {
		if tp.Conns[i].Type.HasGm() {
			tp.Conns[i].Gm *= cn.GmScale
		}
	}
	env := topology.DefaultEnv()
	env.CL, env.RL = sp.CL, sp.RL
	env.Dev.FT *= cn.FTScale
	nl, err := tp.Elaborate(env)
	if err != nil {
		return CornerResult{}, fmt.Errorf("experiment: corner %s: %w", cn.Name, err)
	}
	rep, err := measure.Analyze(nl, "out")
	if err != nil {
		return CornerResult{}, fmt.Errorf("experiment: corner %s: %w", cn.Name, err)
	}
	return CornerResult{Corner: cn, Report: rep, Pass: sp.Satisfied(rep)}, nil
}

// RunCorners evaluates the topology at every corner under the spec's
// load. The corner scalings apply to the skeleton stages and to every
// transconductor in the compensation network. Corners are evaluated
// concurrently and collected in corner order; a failure reports the
// lowest-index failing corner together with the results that precede
// it, exactly as a serial loop would.
func RunCorners(topo *topology.Topology, sp spec.Spec, corners []Corner) (CornersReport, error) {
	if len(corners) == 0 {
		corners = StandardCorners()
	}
	type outcome struct {
		res CornerResult
		err error
	}
	outs, err := jobs.Map(context.Background(), 0, corners,
		func(_ context.Context, cn Corner) (outcome, error) {
			res, err := runCorner(topo, sp, cn)
			return outcome{res, err}, nil
		})
	var out CornersReport
	if err != nil {
		return out, err
	}
	for _, o := range outs {
		if o.err != nil {
			return out, o.err
		}
		out.Results = append(out.Results, o.res)
	}
	return out, nil
}
