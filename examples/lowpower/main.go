// Lowpower works the paper's G-4 scenario (power < 50 µW) and then goes
// beyond it: after the knowledge-driven design lands inside the budget,
// the parameter-tuning tool (Fig. 2's "parameter tuning tool [14]", here
// the default sizing backend) squeezes the figure of merit further while
// holding every spec — the optional tool-assisted refinement loop of the
// paper's workflow.
package main

import (
	"context"
	"fmt"
	"log"

	"artisan/internal/agents"
	"artisan/internal/llm"
	"artisan/internal/spec"
)

func main() {
	g4, _ := spec.Group("G-4")
	fmt.Println("spec:", g4)

	// Knowledge-driven design (deterministic expert).
	model := llm.NewDomainModel(3, 0)
	session := agents.NewSession(model, g4, agents.DefaultOptions())
	out, err := session.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if !out.Success {
		log.Fatalf("design failed: %s", out.FailReason)
	}
	fmt.Printf("\nknowledge-driven %s design:\n  %v\n  FoM = %.1f\n",
		out.Arch, out.Report, g4.FoMOf(out.Report))

	// Sizing refinement on top: tune the continuous parameters for FoM
	// subject to the specs.
	tuner := agents.NewTuner(session.Sim, 7)
	res, err := tuner.Tune(context.Background(), out.Topology, g4)
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Report
	fmt.Printf("\nafter %s parameter tuning (%d extra simulations):\n  %v\n  FoM = %.1f (score %.1f)\n",
		res.Backend, session.Sim.Invocations-out.SimCount, rep, g4.FoMOf(rep), res.Score)
	if !g4.Satisfied(rep) {
		fmt.Println("  note: tuner result violates a spec; keeping the knowledge-driven design")
		return
	}
	improvement := g4.FoMOf(rep) / g4.FoMOf(out.Report)
	fmt.Printf("  FoM improvement over the analytic design: %.2f×\n", improvement)
	fmt.Println("\ntuned parameters:", res.Topo.Summary())
	fmt.Printf("power: %.1f µW of the %.0f µW budget\n", rep.Power*1e6, g4.MaxPower*1e6)
}
