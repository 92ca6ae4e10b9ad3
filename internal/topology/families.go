package topology

import "sort"

// Compensation-family taxonomy. Every connection type belongs to one
// structural family from the multistage-compensation literature; the
// benchmark rubric checks a designer's claimed families against the
// actual structure, so the mapping is exported and total.
const (
	FamilyMiller      = "miller"      // plain capacitive (Miller) coupling
	FamilyNullingR    = "nulling-R"   // series/parallel RC zero control
	FamilyShuntR      = "shunt-R"     // bare resistive coupling or shunt
	FamilyFeedforward = "feedforward" // plain transconductance fast path
	FamilyActiveZero  = "active-zero" // gm coupled through C/R networks
	FamilyMultipath   = "multipath"   // gm in parallel with a Miller cap
	FamilyBuffered    = "buffered"    // unity-buffer-decoupled Miller
	FamilyDamping     = "damping"     // DFC block shunting a node
	FamilyAuxStage    = "aux-stage"   // full auxiliary gain stage
	FamilyCascode     = "cascode"     // current-buffer (cascode) Miller
	FamilyQFC         = "QFC"         // Q-factor-control damped coupling
)

// Family returns the compensation family of a connection type, or "" for
// ConnNone and out-of-range values.
func (t ConnType) Family() string {
	switch t {
	case ConnC:
		return FamilyMiller
	case ConnSeriesRC, ConnParallelRC:
		return FamilyNullingR
	case ConnR:
		return FamilyShuntR
	case ConnGmP, ConnGmN:
		return FamilyFeedforward
	case ConnGmPSeriesC, ConnGmNSeriesC, ConnGmPSeriesR, ConnGmNSeriesR,
		ConnGmPSeriesRC, ConnGmNSeriesRC:
		return FamilyActiveZero
	case ConnGmPParallelC, ConnGmNParallelC:
		return FamilyMultipath
	case ConnBufC, ConnBufR, ConnBufRC:
		return FamilyBuffered
	case ConnDFCP, ConnDFCN:
		return FamilyDamping
	case ConnStageP, ConnStageN:
		return FamilyAuxStage
	case ConnCascodeC:
		return FamilyCascode
	case ConnQFCP, ConnQFCN:
		return FamilyQFC
	}
	return ""
}

// CompFamilies returns the sorted, de-duplicated compensation families
// present in the topology's connection set. An uncompensated skeleton
// returns an empty slice.
func (t *Topology) CompFamilies() []string {
	seen := map[string]bool{}
	for _, c := range t.Conns {
		if f := c.Type.Family(); f != "" && !seen[f] {
			seen[f] = true
		}
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
