// Package design encodes the analytic opamp design procedures — the
// bottom-level Chain-of-Thoughts design flow of the paper (§3.3.2, Fig. 4).
// Each architecture's procedure is a sequence of question/answer steps
// whose numeric work is expressed as calculator formulas (the tool the
// Artisan-LLM invokes), so executing a procedure yields both a sized
// topology and a human-readable derivation — the interpretability the
// paper contrasts against black-box optimizers.
//
// The empirical choices a human expert would make ("Cm1 and Cm2 are both
// in the pF level, take Cm1 = 4 pF") are factored into Knobs, which the
// LLM layer samples at temperature; the recipes below were calibrated
// against the in-repo MNA simulator so that default knobs meet the
// paper's spec groups.
package design

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"artisan/internal/calc"
	"artisan/internal/netlist"
	"artisan/internal/spec"
	"artisan/internal/topology"
	"artisan/internal/units"
)

// Step is one QA exchange of the design flow. It keeps what the step
// computed, its formula values and on the last step the netlist, and
// renders its answer and calculator text only when read, so a run whose
// transcript nobody reads never formats them.
type Step struct {
	Index    int
	Title    string
	Question string // what Artisan-Prompter asks
	Formulas []string
	Values   []float64 // calculator outputs, one per formula

	answer  string           // the narrative part of Artisan-LLM's answer
	netlist *netlist.Netlist // the assembled netlist, on the last step
}

// Answer renders Artisan-LLM's answer: the narrative, followed on the
// last step by the assembled netlist.
func (s *Step) Answer() string {
	if s.netlist == nil {
		return s.answer
	}
	return s.answer + s.netlist.String()
}

// Result renders formula j with its value, as the calculator tool
// reports it: "gm3 = 8*pi*GBW*CL = 255.0973u".
func (s *Step) Result(j int) string {
	return strings.TrimSpace(s.Formulas[j]) + " = " + units.Format(s.Values[j])
}

// Result is a completed design: the sized topology plus the derivation.
type Result struct {
	Arch  string
	Spec  spec.Spec
	Knobs Knobs
	Topo  *topology.Topology
	Steps []Step
	env   *calc.Env // the calculator environment after the last step
}

// Transcript renders the full derivation as a chat-style log.
func (r *Result) Transcript() string {
	var b strings.Builder
	for i := range r.Steps {
		s := &r.Steps[i]
		fmt.Fprintf(&b, "Q%d: %s\n", s.Index, s.Question)
		fmt.Fprintf(&b, "A%d: %s\n", s.Index, s.Answer())
		for j := range s.Formulas {
			fmt.Fprintf(&b, "    [calculator] %s\n", s.Result(j))
		}
	}
	return b.String()
}

// Netlist returns the behavioral netlist the procedure's last step
// assembled from the designed topology under the spec's load. That step's
// answer renders it, so a caller that changes values works on a Clone.
func (r *Result) Netlist() *netlist.Netlist { return r.Steps[len(r.Steps)-1].netlist }

// Param returns a named quantity from the final design environment.
func (r *Result) Param(name string) (float64, bool) { return r.env.Get(name) }

// Knobs are the empirical design choices. Every knob is a positive scalar
// so the LLM layer can jitter them log-normally.
type Knobs map[string]float64

// Clone copies the knob set.
func (k Knobs) Clone() Knobs {
	c := make(Knobs, len(k))
	for key, v := range k {
		c[key] = v
	}
	return c
}

// String renders knobs deterministically (sorted keys).
func (k Knobs) String() string {
	keys := make([]string, 0, len(k))
	for key := range k {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, key := range keys {
		parts[i] = fmt.Sprintf("%s=%s", key, units.Format(k[key]))
	}
	return strings.Join(parts, " ")
}

// Architectures lists the architectures with design procedures, in the
// preference order of the knowledge base.
func Architectures() []string {
	return []string{"NMC", "NMCNR", "NMCF", "MNMC", "NGCC", "DFCFC", "TCFC", "AZC", "SMC", "SMCNR"}
}

// DefaultKnobs returns the calibrated expert choices for an architecture
// under a spec.
func DefaultKnobs(arch string, s spec.Spec) (Knobs, error) {
	switch arch {
	case "NMC", "NMCNR":
		k := Knobs{"GBWMargin": 1.45, "Cm1": 4e-12, "Cm2Ratio": 0.75}
		if s.MaxPower < 100e-6 {
			// Low-power allocation: smaller compensation caps cut gm1/gm2.
			k["Cm1"] = 2e-12
		}
		if arch == "NMCNR" {
			k["RzFactor"] = 1.0 // Rz = RzFactor/gm3
		}
		return k, nil
	case "NMCF":
		return Knobs{"GBWMargin": 1.3, "Cm1": 1e-12, "Cm2Ratio": 0.4,
			"Gm2Ratio": 5.0, "Gm3Factor": 0.66, "GmfRatio": 0.27}, nil
	case "MNMC":
		return Knobs{"GBWMargin": 1.45, "Cm1": 4e-12, "Cm2Ratio": 0.26,
			"Gm2Boost": 1.36, "Gm3Boost": 1.16, "GmfRatio": 1.0}, nil
	case "NGCC":
		return Knobs{"GBWMargin": 1.45, "Cm1": 4e-12, "Cm2Ratio": 0.75}, nil
	case "DFCFC":
		if s.CL >= 100e-12 {
			// Huge-load regime (the architecture's home turf, G-5).
			return Knobs{"GBWMargin": 2.5, "Cm1": 3e-12, "Gm2Ratio": 0.8,
				"Gm3Factor": 0.03, "Gm4Ratio": 0.1, "Cm3Ratio": 1.0, "GmfRatio": 0.15}, nil
		}
		// Moderate loads need a conventionally strong output stage.
		return Knobs{"GBWMargin": 2.0, "Cm1": 3e-12, "Gm2Ratio": 0.65,
			"Gm3Factor": 0.5, "Gm4Ratio": 0.2, "Cm3Ratio": 1.0, "GmfRatio": 0.3}, nil
	case "TCFC":
		return Knobs{"GBWMargin": 1.95, "Cmt": 0.26e-12, "GmtRatio": 0.58,
			"Gm2Ratio": 2.1, "Gm3Factor": 16.2, "Cm2": 0.33e-12}, nil
	case "AZC":
		return Knobs{"GBWMargin": 1.45, "Cm1": 4e-12, "Gm2Ratio": 1.14,
			"Gm3Factor": 1.0, "GmaRatio": 0.12, "Cm2": 0.48e-12}, nil
	case "SMC", "SMCNR":
		k := Knobs{"GBWMargin": 1.3, "Cc": 1e-12, "Gm2Factor": 3.0}
		if arch == "SMCNR" {
			k["RzFactor"] = 1.0 // Rz = RzFactor/gm2
		}
		return k, nil
	}
	return nil, fmt.Errorf("design: unknown architecture %q", arch)
}

// SampleKnobs draws the empirical choices at a temperature: each knob is
// perturbed log-normally with σ = temperature, mimicking the spread of the
// Artisan-LLM's sampled answers across repeated design sessions.
func SampleKnobs(arch string, s spec.Spec, rng *rand.Rand, temperature float64) (Knobs, error) {
	k, err := DefaultKnobs(arch, s)
	if err != nil {
		return nil, err
	}
	// Iterate in sorted order: map order is randomized per run, and each
	// knob consumes one RNG draw, so unordered iteration would break
	// seeded reproducibility.
	keys := make([]string, 0, len(k))
	for key := range k {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		k[key] *= lognorm(rng, temperature)
	}
	return k, nil
}

func lognorm(rng *rand.Rand, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	v := rng.NormFloat64() * sigma
	if v > 1.5 {
		v = 1.5
	}
	if v < -1.5 {
		v = -1.5
	}
	return math.Exp(v)
}

// Design runs the architecture's procedure and returns the sized topology
// plus the step-by-step derivation.
func Design(arch string, s spec.Spec, k Knobs) (*Result, error) {
	if k == nil {
		var err error
		k, err = DefaultKnobs(arch, s)
		if err != nil {
			return nil, err
		}
	}
	b := newBuilder(arch, s, k)
	var err error
	switch arch {
	case "NMC":
		err = b.designNMC(false)
	case "NMCNR":
		err = b.designNMC(true)
	case "NMCF":
		err = b.designNMCF()
	case "MNMC":
		err = b.designMNMC()
	case "NGCC":
		err = b.designNGCC()
	case "DFCFC":
		err = b.designDFCFC()
	case "TCFC":
		err = b.designTCFC()
	case "AZC":
		err = b.designAZC()
	case "SMC":
		err = b.designSMC(false)
	case "SMCNR":
		err = b.designSMC(true)
	default:
		return nil, fmt.Errorf("design: unknown architecture %q", arch)
	}
	if err != nil {
		return nil, err
	}
	return b.finish()
}
