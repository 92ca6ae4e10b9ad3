package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"artisan/internal/telemetry"
)

// PhaseTimes is a measured per-phase wall-clock breakdown of a design
// run, aggregated from telemetry spans. It complements the Table 3 cost
// model: the model predicts what a run would cost on real EDA tooling,
// the phases report where this implementation actually spent its time.
type PhaseTimes map[string]time.Duration

// spanPhase maps exact span names to phase buckets. Only leaf-phase
// names appear: nested container spans (agents.session, sizing.*,
// mna.*) are excluded so no wall-clock is counted twice across buckets
// — except that "tuning" contains the simulator calls its optimizer
// issues, which also count under "simulation".
var spanPhase = map[string]string{
	"llm.propose_architectures": "llm-qa",
	"llm.propose_knobs":         "llm-qa",
	"llm.propose_modification":  "llm-qa",
	"cot.design":                "design-flow",
	"tool.simulator":            "simulation",
	"tool.tuner":                "tuning",
	"gmid.map":                  "mapping",
}

// phasesFromTrace folds recorded span trees into phase buckets.
func phasesFromTrace(roots []*telemetry.Span) PhaseTimes {
	stats := telemetry.SumByName(roots)
	pt := PhaseTimes{}
	for name, st := range stats {
		phase, ok := spanPhase[name]
		if !ok {
			continue
		}
		pt[phase] += st.Total
	}
	return pt
}

// meanPhases averages the per-trial breakdowns of one cell. Trials
// without trace data (the black-box baselines) contribute nothing.
func meanPhases(results []trialResult) PhaseTimes {
	sum := PhaseTimes{}
	n := 0
	for _, r := range results {
		if len(r.phases) == 0 {
			continue
		}
		n++
		for k, v := range r.phases {
			sum[k] += v
		}
	}
	if n == 0 {
		return nil
	}
	for k := range sum {
		sum[k] /= time.Duration(n)
	}
	return sum
}

// phaseKey addresses one cell's breakdown in Table3.Phases.
func phaseKey(m Method, group string) string { return string(m) + "|" + group }

// PhasesFor returns the measured mean phase breakdown of a cell, or nil
// when the method produced no trace (the non-agentic baselines).
func (t *Table3) PhasesFor(m Method, group string) PhaseTimes {
	return t.Phases[phaseKey(m, group)]
}

// PhaseBreakdown renders the measured per-phase time breakdown next to
// the modeled Table 3 times: one row per traced cell, phases ordered by
// share of the measured total.
func (t *Table3) PhaseBreakdown() string {
	var keys []string
	for k := range t.Phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("Measured per-phase wall-clock (mean per trial, from trace spans)\n")
	if len(keys) == 0 {
		b.WriteString("  no traced cells (phases are recorded for the agentic methods only)\n")
		return b.String()
	}
	for _, k := range keys {
		pt := t.Phases[k]
		var names []string
		for name := range pt {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			if pt[names[i]] != pt[names[j]] {
				return pt[names[i]] > pt[names[j]]
			}
			return names[i] < names[j]
		})
		method, group, _ := strings.Cut(k, "|")
		fmt.Fprintf(&b, "%-8s %-5s", method, group)
		for _, name := range names {
			fmt.Fprintf(&b, "  %s=%s", name, pt[name].Round(time.Microsecond))
		}
		b.WriteString("\n")
	}
	return b.String()
}
