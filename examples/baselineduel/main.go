// Baselineduel pits the three families of the paper's Table 3 against
// each other on one spec group with a shared simulation budget: the
// black-box optimizers (BOBO, RLBO) burn their whole budget searching,
// the off-the-shelf LLM baselines fail to execute the flow at all, and
// the knowledge-driven Artisan closes the design in a couple of
// simulations. Wall-clock is modeled with the paper-calibrated cost model.
package main

import (
	"context"
	"fmt"
	"log"

	"artisan/internal/agents"
	"artisan/internal/experiment"
	"artisan/internal/llm"
	"artisan/internal/opt"
	"artisan/internal/spec"
)

func main() {
	g3, _ := spec.Group("G-3") // the GBW-dominated group
	const budget = 120
	cost := experiment.DefaultCostModel()
	fmt.Println("spec:", g3)
	fmt.Printf("baseline budget: %d simulations\n\n", budget)

	if r, err := opt.BOBO(context.Background(), g3, budget, 1); err == nil {
		fmt.Printf("BOBO   : success=%-5v sims=%3d  modeled time %v\n", r.Success, r.Sims, cost.BOBOTime(r.Sims))
		if r.Best != nil {
			fmt.Printf("         best: %s\n", r.Best.Summary())
			fmt.Printf("         %s\n", experiment.FormatReport(g3, r.Report))
		}
	}
	if r, err := opt.RLBO(context.Background(), g3, budget, 2); err == nil {
		fmt.Printf("RLBO   : success=%-5v sims=%3d  modeled time %v\n", r.Success, r.Sims, cost.RLBOTime(r.Sims))
		if r.Best != nil {
			fmt.Printf("         best: %s\n", r.Best.Summary())
			fmt.Printf("         %s\n", experiment.FormatReport(g3, r.Report))
		}
	}

	for _, m := range []llm.DesignerModel{llm.NewGPT4Model(), llm.NewLlama2Model()} {
		out, err := agents.NewSession(m, g3, agents.DefaultOptions()).Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s: success=%-5v (%s)\n", m.Name(), out.Success, clip(out.FailReason, 80))
	}

	out, err := agents.NewSession(llm.NewDomainModel(3, 0), g3, agents.DefaultOptions()).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	artTime := cost.ArtisanTime(out.SimCount, out.QACount, out.Success)
	fmt.Printf("Artisan: success=%-5v sims=%3d  modeled time %v\n", out.Success, out.SimCount, artTime)
	fmt.Printf("         arch: %s\n", out.Arch)
	fmt.Printf("         %s\n", experiment.FormatReport(g3, out.Report))
	fmt.Printf("\nArtisan vs a full %d-sim BOBO run: %.1f× faster\n",
		budget, float64(cost.BOBOTime(budget))/float64(artTime))
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
