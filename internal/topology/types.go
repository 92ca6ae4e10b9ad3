// Package topology models the paper's opamp design space (§2.2, Fig. 1):
// a cascode skeleton of 2–4 transconductance stages, plus tunable
// connections at a set of legitimate positions, each realised by one of
// 25 connection types (§3.2.2). A Topology elaborates to a behavioral
// netlist for the MNA simulator. The package includes the library of
// named compensation architectures (NMC, NMCF, DFCFC, …) the design
// knowledge base reasons about, the Sampler behind the paper's
// NetlistTuple generator, and the constrained random Generator the
// generative benchmark harness uses to defeat memorization.
package topology

import "fmt"

// ConnType enumerates the 25 optional types a tunable connection can take
// (the paper states 25 types per position without listing them; this
// taxonomy spans the passive, active, buffered and damping structures the
// three-stage compensation literature uses).
type ConnType int

const (
	// ConnNone leaves the position open.
	ConnNone ConnType = iota
	// ConnR is a resistor between the endpoints.
	ConnR
	// ConnC is a capacitor (the plain Miller connection).
	ConnC
	// ConnSeriesRC is a nulling resistor in series with a capacitor.
	ConnSeriesRC
	// ConnParallelRC is a resistor in parallel with a capacitor.
	ConnParallelRC
	// ConnGmP is a forward transconductance (+ polarity).
	ConnGmP
	// ConnGmN is a forward transconductance (− polarity).
	ConnGmN
	// ConnGmPSeriesC couples a + transconductor through a series capacitor.
	ConnGmPSeriesC
	// ConnGmNSeriesC couples a − transconductor through a series capacitor.
	ConnGmNSeriesC
	// ConnGmPSeriesR couples a + transconductor through a series resistor.
	ConnGmPSeriesR
	// ConnGmNSeriesR couples a − transconductor through a series resistor.
	ConnGmNSeriesR
	// ConnGmPSeriesRC couples a + transconductor through R then C.
	ConnGmPSeriesRC
	// ConnGmNSeriesRC couples a − transconductor through R then C.
	ConnGmNSeriesRC
	// ConnGmPParallelC is a + transconductor with a bypass capacitor.
	ConnGmPParallelC
	// ConnGmNParallelC is a − transconductor with a bypass capacitor.
	ConnGmNParallelC
	// ConnBufC is a unity buffer driving a capacitor (level-shifted Miller).
	ConnBufC
	// ConnBufR is a unity buffer driving a resistor.
	ConnBufR
	// ConnBufRC is a unity buffer driving a series RC.
	ConnBufRC
	// ConnDFCP is a damping-factor-control block (+): a gain stage with a
	// local feedback capacitor, acting as a frequency-dependent capacitor
	// shunting the From node (To must be ground).
	ConnDFCP
	// ConnDFCN is the − polarity DFC block.
	ConnDFCN
	// ConnStageP is a full + gain stage (transconductor with its own
	// output resistance and parasitic capacitance) from From to To.
	ConnStageP
	// ConnStageN is a full − gain stage.
	ConnStageN
	// ConnCascodeC is cascode (current-buffer) compensation: a capacitor
	// into a common-gate transconductor that relays the current to To.
	ConnCascodeC
	// ConnQFCP is a + transconductor with series C damped by a parallel R.
	ConnQFCP
	// ConnQFCN is a − transconductor with series C damped by a parallel R.
	ConnQFCN

	// NumConnTypes is the size of the connection-type alphabet (25).
	NumConnTypes = int(ConnQFCN) + 1
)

var connNames = [...]string{
	"none", "R", "C", "RC-series", "RC-parallel",
	"gm+", "gm-", "gm+C", "gm-C", "gm+R", "gm-R", "gm+RC", "gm-RC",
	"gm+||C", "gm-||C", "buf-C", "buf-R", "buf-RC",
	"DFC+", "DFC-", "stage+", "stage-", "cascode-C", "QFC+", "QFC-",
}

// String returns a short mnemonic for the type.
func (t ConnType) String() string {
	if t < 0 || int(t) >= len(connNames) {
		return fmt.Sprintf("ConnType(%d)", int(t))
	}
	return connNames[t]
}

// HasGm reports whether the type instantiates a transconductor.
func (t ConnType) HasGm() bool {
	switch t {
	case ConnGmP, ConnGmN, ConnGmPSeriesC, ConnGmNSeriesC, ConnGmPSeriesR,
		ConnGmNSeriesR, ConnGmPSeriesRC, ConnGmNSeriesRC, ConnGmPParallelC,
		ConnGmNParallelC, ConnDFCP, ConnDFCN, ConnStageP, ConnStageN,
		ConnCascodeC, ConnQFCP, ConnQFCN:
		return true
	}
	return false
}

// HasC reports whether the type instantiates a capacitor.
func (t ConnType) HasC() bool {
	switch t {
	case ConnC, ConnSeriesRC, ConnParallelRC, ConnGmPSeriesC, ConnGmNSeriesC,
		ConnGmPSeriesRC, ConnGmNSeriesRC, ConnGmPParallelC, ConnGmNParallelC,
		ConnBufC, ConnBufRC, ConnDFCP, ConnDFCN, ConnCascodeC, ConnQFCP, ConnQFCN:
		return true
	}
	return false
}

// HasR reports whether the type instantiates an explicit resistor
// (transconductor output resistances don't count).
func (t ConnType) HasR() bool {
	switch t {
	case ConnR, ConnSeriesRC, ConnParallelRC, ConnGmPSeriesR, ConnGmNSeriesR,
		ConnGmPSeriesRC, ConnGmNSeriesRC, ConnBufR, ConnBufRC, ConnQFCP, ConnQFCN:
		return true
	}
	return false
}

// Inverting reports whether a transconductor type has − polarity.
func (t ConnType) Inverting() bool {
	switch t {
	case ConnGmN, ConnGmNSeriesC, ConnGmNSeriesR, ConnGmNSeriesRC,
		ConnGmNParallelC, ConnDFCN, ConnStageN, ConnQFCN:
		return true
	}
	return false
}

// ShuntOnly reports whether the type is a one-port that must terminate at
// ground (DFC blocks).
func (t ConnType) ShuntOnly() bool { return t == ConnDFCP || t == ConnDFCN }

// Stage-count limits of the skeleton. Two stages is the classic Miller
// opamp; four is the deepest nesting the compensation literature treats
// as practical (and the deepest the generative benchmark samples).
const (
	MinStageCount = 2
	MaxStageCount = 4
)

// SkeletonNodesN returns the signal-path nodes of an n-stage skeleton in
// signal order — in, n1 … n(n-1), out — followed by ground. The
// three-stage skeleton of Fig. 1(a) is SkeletonNodesN(3).
func SkeletonNodesN(n int) []string {
	if n < MinStageCount || n > MaxStageCount {
		return buildSkeletonNodes(n)
	}
	return append([]string(nil), skeletonNodesTab[n]...)
}

func buildSkeletonNodes(n int) []string {
	nodes := []string{"in"}
	for i := 1; i < n; i++ {
		nodes = append(nodes, fmt.Sprintf("n%d", i))
	}
	return append(nodes, "out", "0")
}

// Per-depth node and position tables, built once: Validate and Elaborate
// sit on the simulation hot path (every Monte-Carlo restamp and every
// generator draw re-validates), so the internal callers read these
// shared read-only slices instead of rebuilding them per call. The
// exported SkeletonNodesN/LegalPositionsN return fresh copies callers
// may mutate (the generator shuffles its copy in place).
var (
	skeletonNodesTab [MaxStageCount + 1][]string
	legalPosTab      [MaxStageCount + 1][]Position
)

func init() {
	for n := MinStageCount; n <= MaxStageCount; n++ {
		skeletonNodesTab[n] = buildSkeletonNodes(n)
		legalPosTab[n] = buildLegalPositions(n)
	}
}

// skeletonNodes returns the shared table entry; callers must not mutate.
func skeletonNodes(n int) []string { return skeletonNodesTab[n] }

// legalPositions returns the shared table entry; callers must not mutate.
func legalPositions(n int) []Position {
	if n < MinStageCount || n > MaxStageCount {
		return nil
	}
	return legalPosTab[n]
}

// Position is an ordered pair of skeleton nodes a connection spans.
type Position struct{ From, To string }

func (p Position) String() string { return p.From + ">" + p.To }

// LegalPositions lists the tunable positions of the paper's three-stage
// design space: forward couplings, feedback couplings, and the shunt
// position at each internal node for DFC blocks. It equals
// LegalPositionsN(3) and is kept as the stable entry point of the fixed
// Table 3 / BOBO / RLBO spaces.
func LegalPositions() []Position {
	return []Position{
		{"in", "n2"}, {"in", "out"},
		{"n1", "n2"}, {"n1", "out"}, {"n2", "out"},
		{"n2", "n1"}, {"out", "n1"}, {"out", "n2"},
		{"n1", "0"}, {"n2", "0"}, {"out", "0"},
	}
}

// LegalPositionsN generalizes LegalPositions to an n-stage skeleton
// (n in [MinStageCount, MaxStageCount]): every forward coupling that
// skips or spans a stage (all ordered signal-path pairs except the input
// stage's own in→n1 hop), every feedback coupling between non-input
// nodes, and a ground shunt at each non-input node. For n = 3 the list
// is exactly LegalPositions(); positions for smaller n are a subset of
// those for larger n.
func LegalPositionsN(n int) []Position {
	if n < MinStageCount || n > MaxStageCount {
		return nil
	}
	return append([]Position(nil), legalPosTab[n]...)
}

func buildLegalPositions(n int) []Position {
	nodes := buildSkeletonNodes(n)
	path := nodes[:len(nodes)-1] // drop ground
	var out []Position
	for i := 0; i < len(path); i++ {
		for j := i + 1; j < len(path); j++ {
			if i == 0 && j == 1 {
				continue // in→n1 is the input stage itself
			}
			out = append(out, Position{path[i], path[j]})
		}
	}
	for j := 2; j < len(path); j++ {
		for i := 1; i < j; i++ {
			out = append(out, Position{path[j], path[i]})
		}
	}
	for i := 1; i < len(path); i++ {
		out = append(out, Position{path[i], "0"})
	}
	return out
}

// legalAt reports whether a type may occupy a position: shunt-only types
// require a ground destination and vice versa; pure ground shunts accept
// passive and DFC types only (a gm into ground is meaningless).
func legalAt(t ConnType, p Position) bool {
	if p.To == "0" {
		switch t {
		case ConnNone, ConnR, ConnC, ConnSeriesRC, ConnParallelRC, ConnDFCP, ConnDFCN:
			return true
		}
		return false
	}
	return !t.ShuntOnly()
}
