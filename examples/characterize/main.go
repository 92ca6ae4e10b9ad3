// Characterize produces a datasheet-style report for an Artisan-designed
// opamp using the full simulator substrate: AC metrics, pole/zero
// locations, output noise, the closed-loop step response with slew
// limiting, and a Monte-Carlo mismatch yield — everything a designer
// would pull from a commercial simulator before trusting a circuit.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/cmplx"

	"artisan/internal/core"
	"artisan/internal/experiment"
	"artisan/internal/llm"
	"artisan/internal/measure"
	"artisan/internal/mna"
	"artisan/internal/spec"
	"artisan/internal/units"
)

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

func main() {
	g1, _ := spec.Group("G-1")
	a := core.NewWithModel(llm.NewDomainModel(1, 0))
	out, err := a.Design(context.Background(), g1)
	if err != nil || !out.Success {
		log.Fatalf("design failed: %v %s", err, out.FailReason)
	}
	nl := out.Netlist

	fmt.Printf("==== datasheet: %s for %s ====\n\n", out.Arch, g1.Name)

	// --- small signal ---
	fmt.Println("[small-signal]")
	fmt.Printf("  DC gain        : %.1f dB\n", out.Report.GainDB)
	fmt.Printf("  GBW            : %sHz\n", units.Format(out.Report.GBW))
	fmt.Printf("  phase margin   : %.1f°\n", out.Report.PM)
	fmt.Printf("  gain margin    : %.1f dB\n", out.Report.GM)
	fmt.Printf("  -3 dB bandwidth: %sHz\n", units.Format(out.Report.F3dB))
	fmt.Printf("  supply power   : %sW\n", units.Format(out.Report.Power))
	fmt.Printf("  FoM (Eq. 6)    : %.1f MHz·pF/mW\n\n", g1.FoMOf(out.Report))

	// --- poles and zeros ---
	c, err := mna.Compile(nl)
	if err != nil {
		log.Fatal(err)
	}
	if poles, err := c.Poles(context.Background()); err == nil {
		fmt.Println("[poles]")
		for _, p := range poles {
			fmt.Printf("  %sHz", units.Format(cmplx.Abs(p)/(2*math.Pi)))
			if imag(p) != 0 {
				q := cmplx.Abs(p) / (2 * math.Abs(real(p)))
				fmt.Printf("  (complex pair, Q = %.2f)", q)
			}
			fmt.Println()
		}
	}
	fmt.Println()

	// --- noise ---
	fmt.Println("[noise]")
	svv, err := c.NoiseAt("out", 1e3, mna.NoiseOpts{})
	if err != nil {
		log.Fatal(err)
	}
	h, _ := c.TFAt("out", 1e3)
	inputDensity := math.Sqrt(svv) / cmplx.Abs(h)
	fmt.Printf("  input-referred density @1 kHz: %.1f nV/√Hz\n", inputDensity*1e9)
	if vrms, err := c.IntegratedNoise("out", 1, 1e8, mna.NoiseOpts{}); err == nil {
		fmt.Printf("  integrated output noise      : %sV rms\n\n", units.Format(vrms))
	}

	// --- large signal (unity buffer) ---
	fmt.Println("[large-signal, unity-gain buffer, 0.5 V step]")
	srep, err := measure.StepAnalyze(nl, "out", measure.DefaultStepOpts())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  slew rate      : %.2f V/µs\n", srep.SlewRate/1e6)
	fmt.Printf("  1%% settling    : %ss\n", units.Format(srep.Settle1))
	fmt.Printf("  overshoot      : %.1f%%\n", srep.Overshoot*100)
	fmt.Printf("  FoM_L          : %.1f V/µs·pF/mW\n\n",
		measure.FoMLarge(srep.SlewRate, g1.CL, out.Report.Power))

	// --- yield ---
	fmt.Println("[Monte-Carlo mismatch, 5% component spread, 200 samples]")
	yr, err := experiment.MonteCarloYield(nl, g1, experiment.DefaultYieldOpts(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s\n", yr)
	for metric, n := range yr.Violations {
		fmt.Printf("  binding metric: %s (%d failures)\n", metric, n)
	}

	// --- sensitivities: which element controls what ---
	fmt.Println("\n[sensitivities, top rows by |S(GBW)|]")
	sens, err := measure.Sensitivities(nl, "out", 0.05)
	if err != nil {
		log.Fatal(err)
	}
	lines := 0
	for _, line := range splitLines(sens.String()) {
		fmt.Println(" ", line)
		lines++
		if lines > 6 {
			break
		}
	}

	// --- transistor mapping ---
	if out.Transistor != nil {
		fmt.Println("\n[transistor-level mapping]")
		fmt.Printf("  %d devices, %sA total bias, %sW at %.1f V\n",
			len(out.Transistor.Devices), units.Format(out.Transistor.ITotal),
			units.Format(out.Transistor.Power()), out.Transistor.VDD)
	}
}
