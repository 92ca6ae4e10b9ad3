package measure_test

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"artisan/internal/bench"
	"artisan/internal/design"
	"artisan/internal/measure"
	"artisan/internal/mna"
	"artisan/internal/netlist"
	"artisan/internal/spec"
	"artisan/internal/topology"
	"artisan/internal/units"
)

// analyzeFull is AnalyzeContext as it was before the one-pass analysis,
// kept as its oracle: the whole 289-point sweep (1e-2 to 1e10 Hz, 24
// points per decade) is stored, magnitudes and unwrapped phase are
// built, and three scans find the first −3 dB, unity-gain and −180°
// crossings.
func analyzeFull(ctx context.Context, nl *netlist.Netlist, out string) (measure.Report, error) {
	c, err := mna.Compile(nl)
	if err != nil {
		return measure.Report{}, err
	}
	var pts []mna.TFPoint
	_, err = c.Sweep(ctx, out, 1e-2, 1e10, 24, func(p mna.TFPoint) bool {
		pts = append(pts, p)
		return true
	})
	if err != nil {
		return measure.Report{}, err
	}
	if len(pts) < 2 {
		return measure.Report{}, fmt.Errorf("measure: sweep too short")
	}
	rep := measure.Report{Power: measure.DefaultPowerModel().Power(nl, nil)}
	href := pts[0].H
	if href == 0 {
		return measure.Report{}, fmt.Errorf("measure: zero response at DC")
	}
	mags := make([]float64, len(pts))
	phase := make([]float64, len(pts))
	prev := 0.0
	for i, p := range pts {
		mags[i] = cmplx.Abs(p.H)
		raw := cmplx.Phase(p.H / href)
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
	target := rep.DCGain / math.Sqrt2
	for i := 1; i < len(pts); i++ {
		if mags[i-1] >= target && mags[i] < target {
			rep.F3dB = logInterp(pts[i-1].Freq, pts[i].Freq, mags[i-1], mags[i], target)
			break
		}
	}
	for i := 1; i < len(pts); i++ {
		if mags[i-1] >= 1 && mags[i] < 1 {
			rep.GBW = logInterp(pts[i-1].Freq, pts[i].Freq, mags[i-1], mags[i], 1)
			t := math.Log(rep.GBW/pts[i-1].Freq) / math.Log(pts[i].Freq/pts[i-1].Freq)
			phiU := phase[i-1] + t*(phase[i]-phase[i-1])
			rep.PM = 180 + phiU
			break
		}
	}
	rep.GM = math.Inf(1)
	for i := 1; i < len(pts); i++ {
		if phase[i-1] > -180 && phase[i] <= -180 {
			t := (-180 - phase[i-1]) / (phase[i] - phase[i-1])
			lm := math.Log(mags[i-1]) + t*(math.Log(mags[i])-math.Log(mags[i-1]))
			rep.GM = -units.DB(math.Exp(lm))
			break
		}
	}
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

func logInterp(f0, f1, m0, m1, target float64) float64 {
	l0, l1 := math.Log(m0), math.Log(m1)
	lt := math.Log(target)
	t := (lt - l0) / (l1 - l0)
	return math.Exp(math.Log(f0) + t*math.Log(f1/f0))
}

// checkAnalyze runs AnalyzeContext and the oracle on nl and fails unless
// both return the same error text, or reports whose every float has the
// same bits and whose other fields are equal. It returns
// AnalyzeContext's result.
func checkAnalyze(t *testing.T, tag string, nl *netlist.Netlist) (measure.Report, error) {
	t.Helper()
	ctx := context.Background()
	got, gerr := measure.AnalyzeContext(ctx, nl, "out")
	want, werr := analyzeFull(ctx, nl, "out")
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, oracle %v", tag, gerr, werr)
	}
	gf := []float64{got.DCGain, got.GainDB, got.GBW, got.PM, got.GM, got.F3dB, got.Power}
	wf := []float64{want.DCGain, want.GainDB, want.GBW, want.PM, want.GM, want.F3dB, want.Power}
	for i := range gf {
		if math.Float64bits(gf[i]) != math.Float64bits(wf[i]) {
			t.Fatalf("%s: report %+v, oracle %+v (float %d differs)", tag, got, want, i)
		}
	}
	if got.Stable != want.Stable || got.NumPoles != want.NumPoles || got.PoleZeroErr != want.PoleZeroErr {
		t.Fatalf("%s: report %+v, oracle %+v", tag, got, want)
	}
	return got, gerr
}

// TestAnalyzeMatchesFullSweep compares the one-pass analysis with the
// full-sweep oracle on the 1024 circuit_sim pool circuits
// (bench.NewTask(i, 1_000_003+7919·i)) and on 500 detuned designs, 100
// per Table-2 group: the group's knowledge-designed topology (NMCF for
// G-3, DFCFC for G-5, NMC otherwise) with every gm, C and R multiplied by
// a seeded log-normal factor, σ 0.8 clamped to ±1.5 in the exponent, as
// the size_recover benchmark starts its trials.
func TestAnalyzeMatchesFullSweep(t *testing.T) {
	for i := 0; i < 1024; i++ {
		task, err := bench.NewTask(i, 1_000_003+7919*int64(i))
		if err != nil {
			t.Fatalf("pool %d: %v", i, err)
		}
		checkAnalyze(t, fmt.Sprintf("pool %d", i), task.Netlist)
	}
	for _, g := range spec.Groups() {
		arch := "NMC"
		switch g.Name {
		case "G-3":
			arch = "NMCF"
		case "G-5":
			arch = "DFCFC"
		}
		des, err := design.Design(arch, g, nil)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		env := topology.DefaultEnv()
		env.CL, env.RL = g.CL, g.RL
		for seed := int64(1); seed <= 100; seed++ {
			nl, err := detune(des.Topo, seed, 0.8).Elaborate(env)
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.Name, seed, err)
			}
			checkAnalyze(t, fmt.Sprintf("%s detuned, seed %d", g.Name, seed), nl)
		}
	}
}

// detune multiplies every tunable value of t by a seeded log-normal
// jitter.
func detune(t *topology.Topology, seed int64, sigma float64) *topology.Topology {
	rng := rand.New(rand.NewSource(seed))
	jitter := func() float64 {
		return math.Exp(math.Max(-1.5, math.Min(1.5, rng.NormFloat64()*sigma)))
	}
	out := t.Clone()
	for i := range out.Stages {
		if out.Stages[i].Gm > 0 {
			out.Stages[i].Gm *= jitter()
		}
	}
	for i := range out.Conns {
		c := &out.Conns[i]
		if c.Type.HasGm() {
			c.Gm *= jitter()
		}
		if c.Type.HasC() {
			c.C *= jitter()
		}
		if c.Type.HasR() {
			c.R *= jitter()
		}
	}
	return out
}
