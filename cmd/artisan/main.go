// Command artisan designs a three-stage operational amplifier from a
// specification, reproducing the paper's end-to-end workflow (Fig. 2):
// architecture selection, the multi-agent CoT design flow, verification,
// modification, and gm/Id transistor mapping.
//
// Usage:
//
//	artisan -group G-1                      # design for a Table 2 group
//	artisan -prompt "gain >85dB, PM >55°, GBW >0.7MHz, Power <250uW, CL=10pF"
//	artisan -group G-5 -transcript          # show the full chat log
//	artisan -group G-3 -width 3 -tune       # wide ToT + sizing-backend tuning (hybrid)
//	artisan -group G-1 -trace               # print the span tree of the run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"artisan/internal/backend"
	"artisan/internal/core"
	"artisan/internal/experiment"
	"artisan/internal/llm"
	"artisan/internal/spec"
	"artisan/internal/telemetry"
)

func main() {
	var (
		group      = flag.String("group", "", "Table 2 spec group (G-1 … G-5)")
		prompt     = flag.String("prompt", "", "natural-language spec request")
		seed       = flag.Int64("seed", 1, "random seed for the Artisan-LLM")
		temp       = flag.Float64("temp", 0, "LLM temperature (0 = deterministic expert)")
		width      = flag.Int("width", 1, "ToT tree width (architecture candidates verified)")
		mods       = flag.Int("mods", 1, "maximum modification rounds")
		tune       = flag.Bool("tune", false, "enable parameter tuning on failure, through the default sizing backend ("+backend.DefaultName+")")
		transcript = flag.Bool("transcript", false, "print the full chat log")
		transistor = flag.Bool("transistor", false, "print the transistor-level netlist")
		model      = flag.String("model", "artisan", "designer model: artisan | gpt4 | llama2")
		yield_     = flag.Bool("yield", false, "run Monte-Carlo mismatch yield on the result")
		corners    = flag.Bool("corners", false, "run the five-corner PVT sweep on the result")
		trace      = flag.Bool("trace", false, "print the telemetry span tree of the design run")
	)
	flag.Parse()

	var sp spec.Spec
	var err error
	switch {
	case *group != "":
		sp, err = spec.Group(*group)
	case *prompt != "":
		sp, err = core.ParsePrompt(*prompt)
	default:
		err = fmt.Errorf("provide -group or -prompt")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "artisan:", err)
		os.Exit(2)
	}

	var designer llm.DesignerModel
	switch *model {
	case "artisan":
		designer = llm.NewDomainModel(*seed, *temp)
	case "gpt4":
		designer = llm.NewGPT4Model()
	case "llama2":
		designer = llm.NewLlama2Model()
	default:
		fmt.Fprintln(os.Stderr, "artisan: unknown model", *model)
		os.Exit(2)
	}

	a := core.NewWithModel(designer)
	a.Opts.TreeWidth = *width
	a.Opts.MaxModifications = *mods
	a.Opts.Tune = *tune

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var tracer *telemetry.Tracer
	if *trace {
		tracer = telemetry.NewTracer(1)
		ctx = telemetry.WithTracer(ctx, tracer)
	}

	fmt.Println("Spec:", sp)
	out, err := a.Design(ctx, sp)
	if tracer != nil {
		// The root span ("core.design") covers the whole workflow; its
		// children are the agent session, tool invocations, MNA solves,
		// and the gm/Id mapping.
		for _, root := range tracer.Traces() {
			fmt.Println("\nTrace:")
			fmt.Print(root.Tree())
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "artisan:", err)
		os.Exit(1)
	}
	if *transcript {
		fmt.Println(out.Transcript.Chat())
	}
	if out.Success {
		fmt.Printf("SUCCESS with %s: %s\n", out.Arch, experiment.FormatReport(sp, out.Report))
		fmt.Printf("session: %d QA steps, %d simulations\n", out.QACount, out.SimCount)
		fmt.Println("\nBehavioral netlist:")
		fmt.Print(out.Netlist)
		if *transistor && out.Transistor != nil {
			fmt.Println("\nTransistor-level netlist (gm/Id mapping):")
			fmt.Print(out.Transistor)
		}
		if *yield_ {
			res, err := experiment.MonteCarloYield(out.Netlist, sp, experiment.DefaultYieldOpts(*seed))
			if err != nil {
				fmt.Fprintln(os.Stderr, "artisan:", err)
				os.Exit(1)
			}
			fmt.Printf("\nMonte-Carlo mismatch (5%%, 200 samples): %s\n", res)
			for metric, n := range res.Violations {
				fmt.Printf("  failures on %s: %d\n", metric, n)
			}
		}
		if *corners {
			rep, err := experiment.RunCorners(out.Topology, sp, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "artisan:", err)
				os.Exit(1)
			}
			fmt.Println("\nPVT corners:")
			fmt.Print(rep)
		}
		return
	}
	fmt.Printf("FAILED (%s): %s\n", designer.Name(), out.FailReason)
	if !*transcript {
		fmt.Println("(rerun with -transcript to see the session log)")
	}
	os.Exit(1)
}
