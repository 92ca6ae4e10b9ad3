// Package describe implements the paper's bidirectional circuit
// representation (§3.2, Fig. 3): NetlistTuple = (netlist, description).
// A rule-based generator renders a topology's structure as a natural-
// language description based on connection type and position matching,
// and a parser recovers the topology from the description — the two
// directions of the semantic alignment that lets the Artisan-LLM
// manipulate netlists through language.
package describe

import (
	"fmt"
	"strings"

	"artisan/internal/topology"
	"artisan/internal/units"
)

// nodePhrases maps skeleton nodes to their canonical English form.
var nodePhrases = map[string]string{
	"in":  "the input node",
	"n1":  "the first-stage output",
	"n2":  "the second-stage output",
	"out": "the output node",
	"0":   "ground",
}

var phraseNodes = invert(nodePhrases)

// typePhrases maps connection types to canonical noun phrases. Each
// phrase is unique and is the parser's anchor.
var typePhrases = map[topology.ConnType]string{
	topology.ConnR:            "a coupling resistor",
	topology.ConnC:            "a Miller compensation capacitor",
	topology.ConnSeriesRC:     "a nulling resistor in series with a compensation capacitor",
	topology.ConnParallelRC:   "a resistor-capacitor parallel branch",
	topology.ConnGmP:          "a non-inverting feedforward transconductor",
	topology.ConnGmN:          "an inverting feedforward transconductor",
	topology.ConnGmPSeriesC:   "a non-inverting transconductor coupled through a series capacitor",
	topology.ConnGmNSeriesC:   "an inverting transconductor coupled through a series capacitor",
	topology.ConnGmPSeriesR:   "a non-inverting transconductor coupled through a series resistor",
	topology.ConnGmNSeriesR:   "an inverting transconductor coupled through a series resistor",
	topology.ConnGmPSeriesRC:  "a non-inverting transconductor coupled through a series resistor-capacitor pair",
	topology.ConnGmNSeriesRC:  "an inverting transconductor coupled through a series resistor-capacitor pair",
	topology.ConnGmPParallelC: "a non-inverting transconductor with a parallel bypass capacitor",
	topology.ConnGmNParallelC: "an inverting transconductor with a parallel bypass capacitor",
	topology.ConnBufC:         "a unity buffer driving a level-shifted compensation capacitor",
	topology.ConnBufR:         "a unity buffer driving an isolation resistor",
	topology.ConnBufRC:        "a unity buffer driving a series resistor-capacitor branch",
	topology.ConnDFCP:         "a damping-factor-control block with positive polarity",
	topology.ConnDFCN:         "a damping-factor-control block with negative polarity",
	topology.ConnStageP:       "an additional non-inverting gain stage",
	topology.ConnStageN:       "an additional inverting gain stage",
	topology.ConnCascodeC:     "a cascode current-buffer compensation path",
	topology.ConnQFCP:         "a non-inverting transconductor with a damped capacitive coupling",
	topology.ConnQFCN:         "an inverting transconductor with a damped capacitive coupling",
}

var phraseTypes = invertTypes(typePhrases)

func invert(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

func invertTypes(m map[topology.ConnType]string) map[string]topology.ConnType {
	out := make(map[string]topology.ConnType, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Describe renders the topology as its canonical structural description.
func Describe(t *topology.Topology) string {
	var b strings.Builder
	if t.NumStages() == 2 {
		fmt.Fprintf(&b,
			"This is a two-stage operational amplifier. The input stage has transconductance %s and the inverting output stage %s.",
			val(t.Stages[0].Gm), val(t.Stages[1].Gm))
	} else {
		fmt.Fprintf(&b,
			"This is a three-stage operational amplifier. The input stage has transconductance %s, the second stage %s, and the inverting output stage %s. The second-stage intrinsic gain is %s.",
			val(t.Stages[0].Gm), val(t.Stages[1].Gm), val(t.Stages[2].Gm), val(t.Stages[1].A0))
	}
	for _, c := range t.Conns {
		if c.Type == topology.ConnNone {
			continue
		}
		b.WriteString(" ")
		b.WriteString(describeConn(c))
	}
	return b.String()
}

func describeConn(c topology.Connection) string {
	phrase := typePhrases[c.Type]
	var params []string
	if c.Type.HasGm() {
		params = append(params, "transconductance "+val(c.Gm))
	}
	if c.Type.HasC() {
		params = append(params, "capacitance "+val(c.C))
	}
	if c.Type.HasR() {
		params = append(params, "resistance "+val(c.R))
	}
	where := fmt.Sprintf("from %s to %s", nodePhrases[c.Pos.From], nodePhrases[c.Pos.To])
	if c.Type.ShuntOnly() {
		where = fmt.Sprintf("attached at %s", nodePhrases[c.Pos.From])
	}
	return fmt.Sprintf("%s is connected %s with %s.",
		capitalize(phrase), where, strings.Join(params, " and "))
}

func val(v float64) string { return units.Format(v) }

func capitalize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// Parse recovers the topology from a canonical (or augmented) description.
func Parse(desc string) (*topology.Topology, error) {
	t := &topology.Topology{Name: "described"}
	sentences := splitSentences(desc)
	if len(sentences) == 0 {
		return nil, fmt.Errorf("describe: empty description")
	}
	sawHeader := false
	for _, s := range sentences {
		low := strings.ToLower(s)
		switch {
		case strings.Contains(low, "three-stage operational amplifier"):
			sawHeader = true
		case strings.Contains(low, "two-stage operational amplifier"):
			sawHeader = true
			t.TwoStage = true
		case strings.Contains(low, "input stage has transconductance"):
			if t.TwoStage {
				vals, err := extractValues(s, "transconductance %s and the inverting output stage %s")
				if err != nil {
					return nil, err
				}
				t.Stages = []topology.Stage{
					{Gm: vals[0], A0: topology.DefaultStageA0[0]},
					{Gm: vals[1], A0: topology.DefaultStageA0[2]},
				}
				continue
			}
			vals, err := extractValues(s, "transconductance %s, the second stage %s, and the inverting output stage %s")
			if err != nil {
				return nil, err
			}
			t.Stages = make([]topology.Stage, 3)
			for i := 0; i < 3; i++ {
				t.Stages[i] = topology.Stage{Gm: vals[i], A0: topology.DefaultStageA0[i]}
			}
		case strings.Contains(low, "second-stage intrinsic gain"):
			v, err := lastValue(s)
			if err != nil {
				return nil, err
			}
			if len(t.Stages) >= 2 {
				t.Stages[1].A0 = v
			}
		default:
			c, ok, err := parseConn(s)
			if err != nil {
				return nil, err
			}
			if ok {
				t.SetConn(c)
			}
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("describe: not a three-stage opamp description")
	}
	if len(t.Stages) == 0 || t.Stages[0].Gm == 0 {
		return nil, fmt.Errorf("describe: stage transconductances missing")
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("describe: parsed topology invalid: %w", err)
	}
	return t, nil
}

func parseConn(sentence string) (topology.Connection, bool, error) {
	low := strings.ToLower(sentence)
	var best topology.ConnType
	bestPhrase := ""
	for phrase, ct := range phraseTypes {
		lp := strings.ToLower(phrase)
		if strings.Contains(low, lp) && len(lp) > len(bestPhrase) {
			best, bestPhrase = ct, lp
		}
	}
	if bestPhrase == "" {
		return topology.Connection{}, false, nil // not a connection sentence
	}
	c := topology.Connection{Type: best}
	// Position.
	if best.ShuntOnly() {
		from, err := nodeAfter(low, "attached at ")
		if err != nil {
			return c, false, err
		}
		c.Pos = topology.Position{From: from, To: "0"}
	} else {
		from, err := nodeAfter(low, "from ")
		if err != nil {
			return c, false, err
		}
		to, err := nodeAfter(low, " to ")
		if err != nil {
			return c, false, err
		}
		c.Pos = topology.Position{From: from, To: to}
	}
	// Parameters.
	var err error
	if best.HasGm() {
		if c.Gm, err = valueAfter(low, "transconductance "); err != nil {
			return c, false, err
		}
	}
	if best.HasC() {
		if c.C, err = valueAfter(low, "capacitance "); err != nil {
			return c, false, err
		}
	}
	if best.HasR() {
		if c.R, err = valueAfter(low, "resistance "); err != nil {
			return c, false, err
		}
	}
	return c, true, nil
}

func nodeAfter(low, marker string) (string, error) {
	i := strings.Index(low, marker)
	if i < 0 {
		return "", fmt.Errorf("describe: missing %q in %q", marker, low)
	}
	rest := low[i+len(marker):]
	bestNode, bestLen := "", 0
	for phrase, node := range phraseNodes {
		if strings.HasPrefix(rest, strings.ToLower(phrase)) && len(phrase) > bestLen {
			bestNode, bestLen = node, len(phrase)
		}
	}
	if bestNode == "" {
		return "", fmt.Errorf("describe: unknown node phrase after %q in %q", marker, low)
	}
	return bestNode, nil
}

func valueAfter(low, marker string) (float64, error) {
	i := strings.Index(low, marker)
	if i < 0 {
		return 0, fmt.Errorf("describe: missing %q in %q", marker, low)
	}
	rest := low[i+len(marker):]
	end := 0
	for end < len(rest) && rest[end] != ' ' && rest[end] != ',' {
		end++
	}
	// A trailing '.' is the sentence period, not a decimal point
	// (decimal points are always followed by digits).
	tok := strings.TrimRight(rest[:end], ".")
	v, err := units.Parse(tok)
	if err != nil {
		return 0, fmt.Errorf("describe: bad value %q after %q: %w", tok, marker, err)
	}
	return v, nil
}

func lastValue(sentence string) (float64, error) {
	fields := strings.Fields(strings.TrimRight(sentence, "."))
	for i := len(fields) - 1; i >= 0; i-- {
		if v, err := units.Parse(strings.TrimRight(fields[i], ".,")); err == nil {
			return v, nil
		}
	}
	return 0, fmt.Errorf("describe: no value in %q", sentence)
}

// splitSentences splits on periods that terminate sentences. Engineering
// values never contain periods followed by spaces, so ". " (or final ".")
// is a safe delimiter, except decimal points inside numbers which are
// never followed by a space.
func splitSentences(text string) []string {
	var out []string
	start := 0
	for i := 0; i < len(text); i++ {
		if text[i] != '.' {
			continue
		}
		atEnd := i == len(text)-1
		if atEnd || text[i+1] == ' ' {
			s := strings.TrimSpace(text[start : i+1])
			if s != "" {
				out = append(out, s)
			}
			start = i + 1
		}
	}
	if s := strings.TrimSpace(text[start:]); s != "" {
		out = append(out, s)
	}
	return out
}

// extractValues pulls the engineering values of a known template sentence
// in order (the %s slots). It simply scans for parseable tokens.
func extractValues(sentence, template string) ([]float64, error) {
	want := strings.Count(template, "%s")
	var vals []float64
	for _, f := range strings.Fields(sentence) {
		tok := strings.Trim(f, ".,")
		if v, err := units.Parse(tok); err == nil {
			vals = append(vals, v)
		}
	}
	// The sentence contains exactly the stage values plus possibly the
	// word "three-stage"? "three-stage" is not parseable. Filter count.
	if len(vals) < want {
		return nil, fmt.Errorf("describe: found %d values in %q, want %d", len(vals), sentence, want)
	}
	return vals[:want], nil
}

// Tuple is one NetlistTuple sample (Eq. 2).
type Tuple struct {
	Netlist     string
	Description string
}

// NewTuple elaborates a topology and pairs the netlist text with the
// description.
func NewTuple(t *topology.Topology, env topology.Env) (Tuple, error) {
	nl, err := t.Elaborate(env)
	if err != nil {
		return Tuple{}, err
	}
	return Tuple{Netlist: nl.String(), Description: Describe(t)}, nil
}
