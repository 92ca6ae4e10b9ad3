package backend

import (
	"context"
	"fmt"

	"artisan/internal/design"
	"artisan/internal/gmid"
	"artisan/internal/sizing"
	"artisan/internal/spec"
	"artisan/internal/telemetry"
	"artisan/internal/topology"
)

// The white-box engine re-derives a topology's operating point from the
// knowledge cards instead of searching for it: it classifies the
// compensation family from the structure, runs that family's CoT design
// recipe (internal/design) and copies the designed values into the
// topology, back-solves every device through the gm/Id tables —
// gm target → inversion coefficient → ID/W → W, with realizability
// checked against the technology card — and backs the bias off when the
// summed device currents bust the power budget. The result is an
// analytic seed a local refiner polishes in a handful of simulations,
// where a black-box search spends its whole init phase just finding the
// right decade.

// sizeWhitebox is the analytic gm/Id engine plus bounded Nelder-Mead
// local refinement.
func sizeWhitebox(ctx context.Context, p Problem, _ int64) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	ctx, span := telemetry.StartSpan(ctx, "sizing.whitebox")
	defer span.End()
	x0, err := seedPoint(p)
	if err != nil {
		span.SetAttr("seed", "failed")
		return nil, err
	}
	return search(ctx, p, func(obj sizing.Problem) error {
		// Nelder-Mead spends d+1 evaluations on the simplex, then roughly two
		// per iteration; size the iteration count to the remaining budget.
		iters := max((p.Budget-(len(x0)+1))/2, 1)
		if err := sizing.NelderMead(obj, x0, iters); err != nil {
			return err
		}
		// Nelder-Mead does not watch ctx; a cancelled run ends here.
		return ctx.Err()
	})
}

// seedPoint is the white-box seed of p as a point of its search space.
// The analytic point may fall outside the ±4× window around the
// (possibly badly detuned) starting values; the boundary point is still
// the closest representable seed, so the point is clamped.
func seedPoint(p Problem) ([]float64, error) {
	seeded, err := Seed(p.Spec, p.Topo, gmid.Default180nm(), gmid.DefaultStagePlan())
	if err != nil {
		return nil, err
	}
	space, err := NewSpace(p.Topo)
	if err != nil {
		return nil, err
	}
	x0, err := space.PointOf(seeded)
	if err != nil {
		return nil, err
	}
	space.Clamp(x0)
	return x0, nil
}

// Seed derives the analytic operating point for a topology under a spec.
// It classifies the compensation family, runs that family's CoT design
// recipe (design.Design, default knobs) and copies the designed values
// into a copy of the topology: every stage gm, the recipe's cascode
// upgrade of a stage's A0, and each element the topology's connection
// types carry at the positions the recipe places them. It then sizes the
// devices through the gm/Id tables and backs the bias off when they bust
// the power budget. An unsupported family, a connection the family needs
// but the topology lacks, or an unrealizable device (W beyond the
// technology's maximum at the chosen efficiency) is an error — the
// degradation ladder then falls back to black-box search.
func Seed(sp spec.Spec, topo *topology.Topology, tech gmid.Tech, plan gmid.StagePlan) (*topology.Topology, error) {
	arch, err := classify(topo)
	if err != nil {
		return nil, err
	}
	des, err := design.Design(arch, sp, nil)
	if err != nil {
		return nil, err
	}
	out := topo.Clone()
	for i, s := range des.Topo.Stages {
		out.Stages[i].Gm = s.Gm
		if s.A0 > out.Stages[i].A0 {
			out.Stages[i].A0 = s.A0
		}
	}
	for _, d := range des.Topo.Conns {
		c := out.ConnAt(d.Pos)
		if d.Type.ShuntOnly() {
			c = dfcBlock(out) // classify accepts the block at n1 or n2
		}
		if c == nil {
			return nil, fmt.Errorf("backend: seed: %s family expects a connection at %s", arch, d.Pos)
		}
		if c.Type.HasGm() && d.Gm > 0 {
			c.Gm = d.Gm
		}
		if c.Type.HasC() && d.C > 0 {
			c.C = d.C
		}
		if c.Type.HasR() && d.R > 0 {
			c.R = d.R
		}
	}
	// gm/Id back-solve: size every transconductor, checking realizability
	// and accumulating the bias current the devices actually draw.
	itot, err := backSolve(out, tech, plan)
	if err != nil {
		return nil, err
	}
	const ibias = 2e-6 // bias-network overhead, as in the design cards
	if pow := sp.VDD * (itot + ibias); pow > 0.9*sp.MaxPower {
		// Back the transconductances off proportionally. GBW scales with
		// gm1, so never scale below the card's GBW margin cushion — a
		// seed that trades a small GBW overshoot for meeting power.
		scale := 0.9 * sp.MaxPower / pow
		if floor := 1 / des.Knobs["GBWMargin"]; scale < floor {
			scale = floor
		}
		scaleGms(out, scale)
		if _, err := backSolve(out, tech, plan); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// classify infers the compensation family from the topology structure.
func classify(t *topology.Topology) (string, error) {
	if err := t.Validate(); err != nil {
		return "", fmt.Errorf("backend: seed: %w", err)
	}
	at := func(from, to string) *topology.Connection {
		return t.ConnAt(topology.Position{From: from, To: to})
	}
	outer := at("n1", "out")
	if t.NumStages() == 2 {
		if outer == nil || !outer.Type.HasC() {
			return "", fmt.Errorf("backend: two-stage topology %q has no Miller capacitor", t.Name)
		}
		if outer.Type.HasR() {
			return "SMCNR", nil
		}
		return "SMC", nil
	}
	if dfcBlock(t) != nil {
		return "DFCFC", nil
	}
	if outer != nil && outer.Type == topology.ConnCascodeC {
		return "TCFC", nil
	}
	if c := at("out", "n1"); c != nil && c.Type.HasGm() {
		return "AZC", nil
	}
	inN2, inOut := at("in", "n2"), at("in", "out")
	if inN2 != nil && inN2.Type.HasGm() {
		if inOut != nil && inOut.Type.HasGm() {
			return "NGCC", nil
		}
		return "MNMC", nil
	}
	if outer == nil || !outer.Type.HasC() {
		return "", fmt.Errorf("backend: topology %q has no recognizable compensation structure", t.Name)
	}
	if outer.Type.HasGm() {
		return "NMCF", nil
	}
	if outer.Type.HasR() {
		return "NMCNR", nil
	}
	return "NMC", nil
}

// dfcBlock returns the damping-factor-control block shunting n1 or n2 to
// ground, or nil.
func dfcBlock(t *topology.Topology) *topology.Connection {
	for _, node := range []string{"n1", "n2"} {
		if c := t.ConnAt(topology.Position{From: node, To: "0"}); c != nil && c.Type.ShuntOnly() {
			return c
		}
	}
	return nil
}

// backSolve sizes every transconductor through the gm/Id tables and
// returns the total bias current. The input pair draws two branches;
// stage and auxiliary transconductors one each.
func backSolve(t *topology.Topology, tech gmid.Tech, plan gmid.StagePlan) (float64, error) {
	itot := 0.0
	size := func(name string, gm, eff float64, pmos bool, branches float64) error {
		d, err := tech.Size(name, gm, eff, 0, pmos, "seed")
		if err != nil {
			return fmt.Errorf("backend: seed unrealizable: %w", err)
		}
		itot += branches * d.Id
		return nil
	}
	if err := size("M1", t.Stages[0].Gm, plan.InputGmID, false, 2); err != nil {
		return 0, err
	}
	if err := size("M2", t.Stages[1].Gm, plan.CSGmID, true, 1); err != nil {
		return 0, err
	}
	if t.NumStages() != 2 {
		if err := size("M3", t.Stages[2].Gm, plan.CSGmID, false, 1); err != nil {
			return 0, err
		}
	}
	for i, c := range t.Conns {
		if !c.Type.HasGm() {
			continue
		}
		if err := size(fmt.Sprintf("MA%d", i), c.Gm, plan.AuxGmID, false, 1); err != nil {
			return 0, err
		}
	}
	return itot, nil
}

// scaleGms multiplies every transconductance (stages and auxiliary
// connections) by a factor, leaving passives untouched.
func scaleGms(t *topology.Topology, scale float64) {
	for i := range t.Stages {
		t.Stages[i].Gm *= scale
	}
	for i := range t.Conns {
		if t.Conns[i].Type.HasGm() {
			t.Conns[i].Gm *= scale
		}
	}
}
