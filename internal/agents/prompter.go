package agents

import (
	"math/rand"

	"artisan/internal/corpus"
)

// Prompter is the Artisan-Prompter agent of Eq. (4): it produces the next
// question Q_{i+1} from the design flow's schedule. The paper implements
// it with GPT-4 in-context; here the schedule comes from the design
// procedures and the prompter's generative freedom is surface rephrasing
// at a temperature (zero temperature asks the canonical questions, which
// keeps regression tests byte-stable).
type Prompter struct {
	seed        int64
	rng         *rand.Rand // seeded from seed on the first draw
	Temperature float64
}

// NewPrompter builds a prompter. Its source is seeded on the first
// rephrasing, so a zero-temperature prompter never builds one.
func NewPrompter(seed int64, temperature float64) *Prompter {
	return &Prompter{seed: seed, Temperature: temperature}
}

// Next renders the scheduled question, possibly rephrased.
func (p *Prompter) Next(question string) string {
	if p == nil || p.Temperature <= 0 {
		return question
	}
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.seed))
	}
	if p.rng.Float64() > p.Temperature*2 {
		return question
	}
	return corpus.Paraphrase(question, p.rng)
}
