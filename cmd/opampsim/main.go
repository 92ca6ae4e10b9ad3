// Command opampsim AC-simulates a behavioral netlist with the in-repo MNA
// engine (the Cadence Spectre substitute) and reports the opamp metrics,
// poles, and zeros.
//
// Usage:
//
//	opampsim circuit.sp            # simulate a file
//	opampsim -out vout circuit.sp  # custom output node
//	cat circuit.sp | opampsim -    # read from stdin
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"os"

	"artisan/internal/measure"
	"artisan/internal/mna"
	"artisan/internal/netlist"
	"artisan/internal/plot"
	"artisan/internal/telemetry"
	"artisan/internal/units"
)

func main() {
	var (
		out    = flag.String("out", "out", "output node name")
		sweep  = flag.Bool("sweep", false, "print the magnitude/phase sweep")
		noise  = flag.Bool("noise", false, "print the output noise sweep and integrated noise")
		tran   = flag.Bool("tran", false, "print the closed-loop step response (unity feedback)")
		stepV  = flag.Float64("step", 0.5, "step amplitude for -tran, V")
		doPlot = flag.Bool("plot", false, "render ASCII plots for -sweep and -tran")
		trace  = flag.Bool("trace", false, "print the span tree of the analysis (sweep + pole/zero solves)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: opampsim [-out node] <netlist.sp | ->")
		os.Exit(2)
	}

	var src []byte
	var err error
	if flag.Arg(0) == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "opampsim:", err)
		os.Exit(1)
	}

	nl, err := netlist.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "opampsim:", err)
		os.Exit(1)
	}
	fmt.Printf("parsed %q: %d devices, %d nodes\n", nl.Title, len(nl.Devices), len(nl.Nodes()))

	ctx := context.Background()
	var tracer *telemetry.Tracer
	if *trace {
		tracer = telemetry.NewTracer(4)
		ctx = telemetry.WithTracer(ctx, tracer)
	}
	rep, err := measure.AnalyzeContext(ctx, nl, *out)
	if tracer != nil {
		fmt.Println("trace:")
		for _, root := range tracer.Traces() {
			fmt.Print(root.Tree())
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "opampsim:", err)
		os.Exit(1)
	}
	fmt.Println(rep)
	fmt.Printf("  DC gain    : %.4g (%.2f dB)\n", rep.DCGain, rep.GainDB)
	fmt.Printf("  GBW        : %sHz\n", units.Format(rep.GBW))
	fmt.Printf("  PM         : %.2f°   GM: %.2f dB\n", rep.PM, rep.GM)
	fmt.Printf("  -3dB BW    : %sHz\n", units.Format(rep.F3dB))
	fmt.Printf("  Power est. : %sW\n", units.Format(rep.Power))

	c, err := mna.Compile(nl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "opampsim:", err)
		os.Exit(1)
	}
	if poles, err := c.Poles(context.Background()); err == nil {
		fmt.Printf("poles (%d):\n", len(poles))
		for _, p := range poles {
			fmt.Printf("  %s rad/s  (%sHz)\n", fmtC(p), units.Format(cmplx.Abs(p)/(2*3.141592653589793)))
		}
	}
	if zeros, err := c.Zeros(context.Background(), *out); err == nil {
		fmt.Printf("zeros (%d):\n", len(zeros))
		for _, z := range zeros {
			fmt.Printf("  %s rad/s\n", fmtC(z))
		}
	}

	if *sweep {
		var pts []mna.TFPoint
		_, err := c.Sweep(context.Background(), *out, 1, 1e9, 4, func(p mna.TFPoint) bool {
			pts = append(pts, p)
			return true
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "opampsim:", err)
			os.Exit(1)
		}
		if *doPlot {
			ser := plot.Series{Name: "Bode magnitude"}
			for _, p := range pts {
				ser.X = append(ser.X, p.Freq)
				ser.Y = append(ser.Y, units.DB(cmplx.Abs(p.H)))
			}
			if txt, err := plot.Render(ser, plot.Options{LogX: true, XLabel: "Hz", YLabel: "dB"}); err == nil {
				fmt.Print(txt)
			}
		} else {
			fmt.Println("freq(Hz)  |H|(dB)  phase(deg)")
			for _, p := range pts {
				fmt.Printf("%9s  %7.2f  %8.2f\n", units.Format(p.Freq),
					units.DB(cmplx.Abs(p.H)), units.Deg(cmplx.Phase(p.H)))
			}
		}
	}

	if *noise {
		npts, err := c.NoiseSweep(*out, 1, 1e8, 2, mna.NoiseOpts{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "opampsim:", err)
			os.Exit(1)
		}
		fmt.Println("freq(Hz)  Svv(V²/Hz)  density(nV/√Hz)")
		for _, p := range npts {
			fmt.Printf("%9s  %10.3e  %10.2f\n", units.Format(p.Freq), p.Svv, 1e9*math.Sqrt(p.Svv))
		}
		if vrms, err := c.IntegratedNoise(*out, 1, 1e8, mna.NoiseOpts{}); err == nil {
			fmt.Printf("integrated output noise (1 Hz – 100 MHz): %sV rms\n", units.Format(vrms))
		}
	}

	if *tran {
		srep, err := measure.StepAnalyze(nl, *out, measure.StepOpts{
			StepV: *stepV, InputStage: "Gm1", Power: measure.DefaultPowerModel()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "opampsim:", err)
			os.Exit(1)
		}
		fmt.Println("closed-loop (unity buffer) step response:")
		fmt.Printf("  %s\n", srep)
		fmt.Printf("  FoM_L = SR·CL/P: compute with your load via measure.FoMLarge\n")
		if *doPlot {
			ser := plot.Series{Name: "step response"}
			for _, p := range srep.Points {
				ser.X = append(ser.X, p.T)
				ser.Y = append(ser.Y, p.V)
			}
			if txt, err := plot.Render(ser, plot.Options{XLabel: "s", YLabel: "V"}); err == nil {
				fmt.Print(txt)
			}
		} else {
			n := len(srep.Points)
			for i := 0; i < n; i += n / 20 {
				p := srep.Points[i]
				fmt.Printf("  t=%-9s v=%s\n", units.Format(p.T), units.Format(p.V))
			}
		}
	}
}

func fmtC(v complex128) string {
	if imag(v) == 0 {
		return units.Format(real(v))
	}
	return fmt.Sprintf("%s%+sj", units.Format(real(v)), units.Format(imag(v)))
}
