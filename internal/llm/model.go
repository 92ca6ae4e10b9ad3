package llm

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"artisan/internal/design"
	"artisan/internal/resilience"
	"artisan/internal/spec"
)

// The knowledge bases are fixed, so each process builds them once, on
// first use, and every model shares them read-only: the Artisan-LLM
// index and profile table and the two baselines' indexes. What a model
// learns or samples (rng, slips, Temperature, SlipRate, lm) stays on the
// instance; Train builds its own extended index instead of touching
// these.
var (
	domainIndex    = sync.OnceValue(func() *Index { return NewIndex(DomainCards()) })
	domainProfiles = sync.OnceValue(DomainProfiles)
	gpt4Index      = sync.OnceValue(func() *Index { return NewIndex(GPT4Cards()) })
	llama2Index    = sync.OnceValue(func() *Index { return NewIndex(Llama2Cards()) })
)

// Model is the text interface an LLM server exposes; every agent in the
// multi-agent framework talks to one of these.
type Model interface {
	Name() string
	Generate(prompt string) (string, error)
}

// ArchChoice is one Tree-of-Thoughts candidate at the first decision point
// (architecture selection).
type ArchChoice struct {
	Arch      string
	Score     float64
	Rationale string
}

// Modification is the second ToT decision point: how to change the design
// after a failed verification.
type Modification struct {
	NewArch   string
	Rationale string
}

// DesignerModel is the richer interface the design agents drive: besides
// free-text generation it exposes the structured decisions of the design
// flow. The DomainModel implements it competently; the off-the-shelf
// baselines implement it with their documented failure modes. Every
// structured decision takes a context so a cancelled session or an
// expired per-stage deadline stops the model instead of leaking work —
// a remote LLM backend makes these genuinely slow calls.
type DesignerModel interface {
	Model
	ProposeArchitectures(ctx context.Context, s spec.Spec, k int) ([]ArchChoice, error)
	ProposeKnobs(ctx context.Context, arch string, s spec.Spec) (design.Knobs, error)
	ProposeModification(ctx context.Context, s spec.Spec, failure string) (Modification, error)
}

// retrievalModel answers free-text prompts by tf-idf retrieval over a
// knowledge base.
type retrievalModel struct {
	name string
	ix   *Index
}

func (m *retrievalModel) Name() string { return m.name }

// Generate retrieves the best-matching knowledge for the prompt. Topic
// routing mirrors how a fine-tuned model specialises: questions about
// recommendations hit architecture cards, "how to modify" hits
// modification cards, and so on.
func (m *retrievalModel) Generate(prompt string) (string, error) {
	topic := classifyPrompt(prompt)
	var hits []Hit
	if topic != "" {
		hits = m.ix.SearchTopic(prompt, topic, 1)
	}
	if len(hits) == 0 {
		hits = m.ix.Search(prompt, 1)
	}
	if len(hits) == 0 {
		return "", fmt.Errorf("llm: %s has no relevant knowledge for %q", m.name, truncate(prompt, 60))
	}
	return hits[0].Card.Body, nil
}

func classifyPrompt(prompt string) string {
	p := strings.ToLower(prompt)
	switch {
	case strings.Contains(p, "recommend") || strings.Contains(p, "design an opamp") ||
		strings.Contains(p, "architecture"):
		return "architecture"
	case strings.Contains(p, "modify") || strings.Contains(p, "fails") ||
		strings.Contains(p, "suffers"):
		return "modification"
	case strings.Contains(p, "zero") || strings.Contains(p, "pole") ||
		strings.Contains(p, "allocate"):
		return "analysis"
	case strings.Contains(p, "flow") || strings.Contains(p, "process") ||
		strings.Contains(p, "transistor") || strings.Contains(p, "gm/id"):
		return "flow"
	}
	return ""
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// DomainModel is the simulated Artisan-LLM: the domain knowledge base plus
// temperature-controlled sampling of the empirical design choices.
type DomainModel struct {
	retrievalModel
	profiles    []ArchProfile
	seed        int64
	rng         *rand.Rand // seeded from seed on the first draw
	Temperature float64
	// SlipRate is the probability that the model holds one *wrong
	// empirical belief* per architecture (a hallucinated design choice,
	// e.g. "take Cm1 = 25 pF"). A slip persists for the model's lifetime
	// — redesigning with the same model repeats the mistake — which is
	// what produces the paper's 7–9/10 session success rates.
	SlipRate float64
	slips    map[string]knobSlip // made on the first decided slip
	lm       *Bigram             // fitted during training; nil before
}

type knobSlip struct {
	key    string
	factor float64
}

// NewDomainModel builds the trained Artisan-LLM over the shared expert
// knowledge base. Temperature 0.22 with the matching slip rate
// reproduces the paper's success-rate spread.
func NewDomainModel(seed int64, temperature float64) *DomainModel {
	return &DomainModel{
		retrievalModel: retrievalModel{name: "Artisan-LLM", ix: domainIndex()},
		profiles:       domainProfiles(),
		seed:           seed,
		Temperature:    temperature,
		SlipRate:       temperature, // calibrated against the paper's 7–9/10 band
	}
}

// rand returns the model's sampling source, seeding it on first use: a
// model that never samples (the server's fallback) never pays for the
// source's 4.9 KB table.
func (m *DomainModel) rand() *rand.Rand {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(m.seed))
	}
	return m.rng
}

// LM exposes the fitted bigram model (nil before training).
func (m *DomainModel) LM() *Bigram { return m.lm }

// ProposeArchitectures scores every known architecture against the spec —
// the expansion step of the ToT decision tree. Scores carry a small
// sampled perturbation so repeated sessions explore near-ties.
func (m *DomainModel) ProposeArchitectures(ctx context.Context, s spec.Spec, k int) ([]ArchChoice, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []ArchChoice
	for _, p := range m.profiles {
		base := p.Suitability(s)
		if base <= 0 {
			continue
		}
		noise := 1.0
		if m.Temperature > 0 {
			noise = lognormSample(m.rand(), m.Temperature/2)
		}
		out = append(out, ArchChoice{Arch: p.Arch, Score: base * noise, Rationale: p.Rationale})
	}
	if len(out) == 0 {
		// The same spec fails the same way on every attempt: mark it so a
		// retry policy moves straight on to its fallback.
		return nil, resilience.Permanent(fmt.Errorf("llm: no architecture suits spec %s", s.Name))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Arch < out[j].Arch
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// ProposeKnobs samples the empirical design choices for an architecture.
// Besides the temperature jitter, the model may hold a persistent wrong
// belief about one knob (see SlipRate); that belief is decided on first
// use of the architecture and repeated on every redesign.
func (m *DomainModel) ProposeKnobs(ctx context.Context, arch string, s spec.Spec) (design.Knobs, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rng := m.rand()
	k, err := design.SampleKnobs(arch, s, rng, m.Temperature)
	if err != nil {
		return nil, err
	}
	sl, decided := m.slips[arch]
	if !decided {
		sl = knobSlip{}
		if rng.Float64() < m.SlipRate {
			keys := make([]string, 0, len(k))
			for key := range k {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			sl.key = keys[rng.Intn(len(keys))]
			// Hallucinated values are off by 3–8× in either direction.
			sl.factor = 3 + 5*rng.Float64()
			if rng.Intn(2) == 0 {
				sl.factor = 1 / sl.factor
			}
		}
		if m.slips == nil {
			m.slips = map[string]knobSlip{}
		}
		m.slips[arch] = sl
	}
	if sl.key != "" {
		k[sl.key] *= sl.factor
	}
	return k, nil
}

// ProposeModification retrieves the expert modification strategy matching
// a failure description (the second ToT decision point).
func (m *DomainModel) ProposeModification(ctx context.Context, s spec.Spec, failure string) (Modification, error) {
	if err := ctx.Err(); err != nil {
		return Modification{}, err
	}
	hits := m.ix.SearchTopic("modify "+failure, "modification", 1)
	if len(hits) == 0 {
		return Modification{}, fmt.Errorf("llm: no modification strategy for %q", truncate(failure, 60))
	}
	c := hits[0].Card
	return Modification{NewArch: c.Arch, Rationale: c.Body}, nil
}

func lognormSample(rng *rand.Rand, sigma float64) float64 {
	v := rng.NormFloat64() * sigma
	if v > 1 {
		v = 1
	}
	if v < -1 {
		v = -1
	}
	return exp1(v)
}

// GPT4Model simulates off-the-shelf GPT-4 (§4.3, Fig. 7): plausible
// single-step answers — including the incorrect dominant-pole formula and
// the unsuitable MPMC suggestion — but no ability to execute the complete
// multi-step design flow.
type GPT4Model struct{ retrievalModel }

// NewGPT4Model builds the GPT-4 baseline.
func NewGPT4Model() *GPT4Model {
	return &GPT4Model{retrievalModel{name: "GPT-4", ix: gpt4Index()}}
}

// ProposeArchitectures: GPT-4 does recommend NMC appropriately.
func (m *GPT4Model) ProposeArchitectures(ctx context.Context, s spec.Spec, k int) ([]ArchChoice, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	body, _ := m.Generate("recommend an architecture")
	return []ArchChoice{{Arch: "NMC", Score: 1, Rationale: body}}, nil
}

// ProposeKnobs: without tailored training GPT-4 cannot carry the
// methodological parameter derivation (paper §4.2: "consistently fail to
// design opamps in any instance").
func (m *GPT4Model) ProposeKnobs(ctx context.Context, arch string, s spec.Spec) (design.Knobs, error) {
	return nil, fmt.Errorf("llm: GPT-4 cannot execute the complete design process: " +
		"its dominant-pole formula p1 = gm3/CL is incorrect, so the derived parameters do not close")
}

// ProposeModification: GPT-4 suggests MPMC, which cannot drive a 1 nF
// load — no design procedure exists for it.
func (m *GPT4Model) ProposeModification(ctx context.Context, s spec.Spec, failure string) (Modification, error) {
	body, _ := m.Generate("modify for large load")
	return Modification{NewArch: "MPMC", Rationale: body}, nil
}

// Llama2Model simulates off-the-shelf Llama2-7b-chat: basic, often
// irrelevant answers and no viable architecture proposal.
type Llama2Model struct{ retrievalModel }

// NewLlama2Model builds the Llama2 baseline.
func NewLlama2Model() *Llama2Model {
	return &Llama2Model{retrievalModel{name: "Llama2-7b-chat", ix: llama2Index()}}
}

// ProposeArchitectures: the "current feedback opamp + voltage followers"
// suggestion names no real three-stage compensation architecture.
func (m *Llama2Model) ProposeArchitectures(ctx context.Context, s spec.Spec, k int) ([]ArchChoice, error) {
	body, _ := m.Generate("recommend an architecture")
	return nil, fmt.Errorf("llm: Llama2 proposes no viable architecture: %s", truncate(body, 80))
}

// ProposeKnobs always fails: there is no architecture to size.
func (m *Llama2Model) ProposeKnobs(ctx context.Context, arch string, s spec.Spec) (design.Knobs, error) {
	return nil, fmt.Errorf("llm: Llama2 cannot derive design parameters")
}

// ProposeModification returns the unprofessional Fig. 7 list, which names
// no actionable architecture.
func (m *Llama2Model) ProposeModification(ctx context.Context, s spec.Spec, failure string) (Modification, error) {
	body, _ := m.Generate("modify for load")
	return Modification{NewArch: "", Rationale: body}, nil
}

var (
	_ DesignerModel = (*DomainModel)(nil)
	_ DesignerModel = (*GPT4Model)(nil)
	_ DesignerModel = (*Llama2Model)(nil)
)
