package design

import (
	"fmt"
	"strings"

	"artisan/internal/calc"
	"artisan/internal/spec"
	"artisan/internal/topology"
	"artisan/internal/units"
)

// builder accumulates design steps, executing formulas in one shared
// calculator environment preloaded with the spec quantities and the
// sampled knobs.
type builder struct {
	arch  string
	spec  spec.Spec
	knobs Knobs
	env   *calc.Env
	steps []Step
	topo  *topology.Topology
}

func newBuilder(arch string, s spec.Spec, k Knobs) *builder {
	env := calc.NewEnv()
	b := &builder{arch: arch, spec: s, knobs: k, env: env}
	env.Set("GainSpec", s.MinGainDB)
	env.Set("GBWspec", s.MinGBW)
	env.Set("PMspec", s.MinPM)
	env.Set("Pmax", s.MaxPower)
	env.Set("CL", s.CL)
	env.Set("RL", s.RL)
	env.Set("VDD", s.VDD)
	env.Set("gmid", 16)    // transconductance efficiency used for power
	env.Set("Ibias", 2e-6) // bias-network overhead
	env.Set("A1", topology.DefaultStageA0[0])
	env.Set("A2", topology.DefaultStageA0[1])
	env.Set("A3", topology.DefaultStageA0[2])
	for key, v := range k {
		env.Set("k_"+key, v)
	}
	return b
}

// step records one QA exchange, running its formulas through the
// calculator tool.
func (b *builder) step(title, question, answer string, formulas ...string) error {
	st := Step{Index: len(b.steps), Title: title, Question: question, answer: answer,
		Formulas: formulas, Values: make([]float64, len(formulas))}
	for i, f := range formulas {
		v, err := calc.Eval(f, b.env)
		if err != nil {
			return fmt.Errorf("design: %s step %q formula %q: %w", b.arch, title, f, err)
		}
		st.Values[i] = v
	}
	b.steps = append(b.steps, st)
	return nil
}

// val reads a bound calculator variable; the recipes only read names they
// have themselves defined, so a miss is a programming error.
func (b *builder) val(name string) float64 {
	v, ok := b.env.Get(name)
	if !ok {
		panic(fmt.Sprintf("design: internal error: %s not bound", name))
	}
	return v
}

func (b *builder) finish() (*Result, error) {
	if b.topo == nil {
		return nil, fmt.Errorf("design: %s procedure produced no topology", b.arch)
	}
	if err := b.topo.Validate(); err != nil {
		return nil, fmt.Errorf("design: %s produced invalid topology: %w", b.arch, err)
	}
	return &Result{
		Arch: b.arch, Spec: b.spec, Knobs: b.knobs,
		Topo: b.topo, Steps: b.steps, env: b.env,
	}, nil
}

// gainCheck appends the stage-gain verification step shared by the Miller
// family; when the projected gain misses the spec it upgrades the second
// stage to a cascode (A2: 45 → 160), the standard gain-enhancement move.
func (b *builder) gainCheck() (cascode bool, err error) {
	if err := b.step("gain budget",
		"Does the stage gain budget meet the gain spec?",
		"The DC gain is Av = A1·A2·gm3·(Ro3||RL) with Ro3 = A3/gm3. Check it against the spec.",
		"Ro3 = A3/gm3",
		"AvdB = db(A1*A2*gm3*(Ro3||RL))",
	); err != nil {
		return false, err
	}
	if b.val("AvdB") < b.spec.MinGainDB+1 {
		if err := b.step("gain enhancement",
			"The projected gain misses the spec. How to enhance it?",
			"Replace the second stage with a telescopic-cascode stage: its intrinsic gain rises from A2 = 45 to 160 without extra current.",
			"A2 = 160",
			"AvdB = db(A1*A2*gm3*(Ro3||RL))",
		); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// powerCheck appends the power-budget step. extra lists additional
// branch-current terms beyond the skeleton (already divided by gmid).
func (b *builder) powerCheck(extraExpr string) error {
	expr := "Itot = 2*gm1/gmid + gm2/gmid + gm3/gmid + Ibias"
	if extraExpr != "" {
		expr += " + " + extraExpr
	}
	return b.step("power budget",
		"Estimate the power consumption and check it against the spec.",
		"Each stage burns Id = gm/(gm/Id); the differential input pair needs two branches, and the bias network adds a fixed overhead.",
		expr,
		"P = VDD*Itot",
	)
}

// designNMC is the paper's 8-step NMC flow (Fig. 4 and the Fig. 7 chat
// log): zero-pole analysis, Butterworth pole allocation, parameter
// solving, gain/power budgeting, netlist assembly.
func (b *builder) designNMC(nulling bool) error {
	if err := b.step("architecture",
		b.spec.Prompt(),
		"Use the classic nested Miller compensation (NMC) architecture: two nested Miller capacitors Cm1 and Cm2 control the dominant and non-dominant poles respectively. It is the best-characterised general-purpose three-stage compensation.",
	); err != nil {
		return err
	}
	if err := b.step("zero-pole analysis",
		"Based on the process, please analyze zero-pole distributions.",
		"Under the Miller effect of Cm1 and Cm2 the dominant pole is p1 = 1/(2π·Cm1·gm2·gm3·Ro1·Ro2·(Ro3||RL)); the two non-dominant poles form a pair governed by gm2, gm3, Cm2 and CL; the feedforward path through Cm1 leaves an RHP zero near gm3/(Cm1+Cm2).",
	); err != nil {
		return err
	}
	if err := b.step("pole allocation",
		"How to allocate these poles in an NMC opamp?",
		"Set p1 < GBW < |p2| ≤ |p3| to obtain a single-pole response up to GBW; by the Butterworth methodology allocate GBW:p2:p3 = 1:2:4 for a maximally-flat response with ≈60° phase margin. Since Av·p1 = gm1/Cm1, GBW = gm1/(2π·Cm1).",
	); err != nil {
		return err
	}
	if err := b.step("solve parameters",
		"Please solve main design parameters from these equations.",
		"Empirically target GBW above the spec with margin; take Cm1 and Cm2 in the pF range; then p3 = 2·GBW fixes gm3 = 8π·GBW·CL, and the Butterworth ratios give gm1 and gm2.",
		"GBW = k_GBWMargin*GBWspec",
		"Cm1 = k_Cm1",
		"Cm2 = k_Cm2Ratio*Cm1",
		"gm3 = 8*pi*GBW*CL",
		"gm1 = gm3*Cm1/(4*CL)",
		"gm2 = gm3*Cm2/(2*CL)",
	); err != nil {
		return err
	}
	cascode, err := b.gainCheck()
	if err != nil {
		return err
	}
	if err := b.powerCheck(""); err != nil {
		return err
	}
	gm1, gm2, gm3 := b.val("gm1"), b.val("gm2"), b.val("gm3")
	cm1, cm2 := b.val("Cm1"), b.val("Cm2")
	if nulling {
		if err := b.step("nulling resistor",
			"How to remove the RHP feedforward zero?",
			"Insert a nulling resistor Rz ≈ 1/gm3 in series with Cm1; the zero moves to the LHP and adds phase lead.",
			"Rz = k_RzFactor/gm3",
		); err != nil {
			return err
		}
		b.topo = topology.NMCNR(gm1, gm2, gm3, cm1, cm2, b.val("Rz"))
	} else {
		b.topo = topology.NMC(gm1, gm2, gm3, cm1, cm2)
	}
	if cascode {
		b.topo.Stages[1].A0 = 160
	}
	return b.assembleStep()
}

func (b *builder) designNMCF() error {
	if err := b.step("architecture",
		b.spec.Prompt(),
		"Use NMC with a feedforward transconductance stage (NMCF): the feedforward gmf from the first-stage output to the output forms a push-pull output pair and a LHP zero, relaxing the third-stage gm needed for a wide GBW — the right choice when the GBW spec dominates.",
	); err != nil {
		return err
	}
	if err := b.step("zero-pole analysis",
		"Please analyze the zero-pole distributions with the feedforward stage.",
		"The LHP zero z ≈ gm3/(Cm1·(gm3/gmf)) partially cancels the first non-dominant pole, so the output-stage condition relaxes from gm3 = 8π·GBW·CL to a fraction of it; the second stage is strengthened to keep the inner loop fast.",
	); err != nil {
		return err
	}
	if err := b.step("solve parameters",
		"Please solve the main design parameters.",
		"Target GBW with margin; take a small Cm1 (the feedforward path carries the slack), then size the stages by the calibrated NMCF ratios.",
		"GBW = k_GBWMargin*GBWspec",
		"Cm1 = k_Cm1",
		"Cm2 = k_Cm2Ratio*Cm1",
		"gm1 = 2*pi*GBW*Cm1",
		"gm2 = k_Gm2Ratio*gm1",
		"gm3 = k_Gm3Factor*2*pi*GBW*CL",
		"gmf = k_GmfRatio*gm3",
	); err != nil {
		return err
	}
	cascode, err := b.gainCheck()
	if err != nil {
		return err
	}
	if err := b.powerCheck("gmf/gmid"); err != nil {
		return err
	}
	b.topo = topology.NMCF(b.val("gm1"), b.val("gm2"), b.val("gm3"),
		b.val("Cm1"), b.val("Cm2"), b.val("gmf"))
	if cascode {
		b.topo.Stages[1].A0 = 160
	}
	return b.assembleStep()
}

func (b *builder) designMNMC() error {
	if err := b.step("architecture",
		b.spec.Prompt(),
		"Use multipath NMC (MNMC): a feedforward transconductor from the input to the second-stage output creates a parallel fast path whose zero cancels the first non-dominant pole.",
	); err != nil {
		return err
	}
	if err := b.step("solve parameters",
		"Please solve the main design parameters.",
		"Size the skeleton by the Butterworth NMC rules, then match the multipath transconductor to gm1 for pole-zero cancellation; the inner Miller capacitor shrinks because the multipath carries the inner-loop phase lead.",
		"GBW = k_GBWMargin*GBWspec",
		"Cm1 = k_Cm1",
		"Cm2 = k_Cm2Ratio*Cm1",
		"gm1 = 2*pi*GBW*Cm1",
		"gm2 = k_Gm2Boost*4*pi*GBW*Cm2",
		"gm3 = k_Gm3Boost*8*pi*GBW*CL",
		"gmf = k_GmfRatio*gm1",
	); err != nil {
		return err
	}
	cascode, err := b.gainCheck()
	if err != nil {
		return err
	}
	if err := b.powerCheck("gmf/gmid"); err != nil {
		return err
	}
	b.topo = topology.MNMC(b.val("gm1"), b.val("gm2"), b.val("gm3"),
		b.val("Cm1"), b.val("Cm2"), b.val("gmf"))
	if cascode {
		b.topo.Stages[1].A0 = 160
	}
	return b.assembleStep()
}

func (b *builder) designNGCC() error {
	if err := b.step("architecture",
		b.spec.Prompt(),
		"Use nested Gm-C compensation (NGCC): feedforward transconductors replicate the input at every nesting level (gmf1 = gm1 into the second-stage output, gmf2 = gm3 into the output), cancelling both feedforward zeros exactly.",
	); err != nil {
		return err
	}
	if err := b.step("solve parameters",
		"Please solve the main design parameters.",
		"Size the skeleton by the Butterworth NMC rules and set the replica feedforwards gmf1 = gm1 and gmf2 = gm3.",
		"GBW = k_GBWMargin*GBWspec",
		"Cm1 = k_Cm1",
		"Cm2 = k_Cm2Ratio*Cm1",
		"gm1 = 2*pi*GBW*Cm1",
		"gm2 = 4*pi*GBW*Cm2",
		"gm3 = 8*pi*GBW*CL",
		"gmf1 = gm1",
		"gmf2 = gm3",
	); err != nil {
		return err
	}
	cascode, err := b.gainCheck()
	if err != nil {
		return err
	}
	if err := b.powerCheck("gmf1/gmid + gmf2/gmid"); err != nil {
		return err
	}
	b.topo = topology.NGCC(b.val("gm1"), b.val("gm2"), b.val("gm3"),
		b.val("Cm1"), b.val("Cm2"), b.val("gmf1"), b.val("gmf2"))
	if cascode {
		b.topo.Stages[1].A0 = 160
	}
	return b.assembleStep()
}

func (b *builder) designDFCFC() error {
	if err := b.step("architecture",
		b.spec.Prompt(),
		"The load capacitance is far beyond what nested Miller compensation can drive within the power budget (gm3 = 8π·GBW·CL would be tens of mS). Use damping-factor-control frequency compensation (DFCFC): remove the inner Miller capacitor, add a DFC block — a gain stage gm4 with feedback capacitor Cm3 acting as a frequency-dependent capacitor — to damp the non-dominant complex poles, and add a feedforward stage gmf for a push-pull output.",
	); err != nil {
		return err
	}
	if err := b.step("zero-pole analysis",
		"Please analyze the pole distribution with the DFC block.",
		"The dominant pole is still set by Cm1; the second and third poles form a complex pair whose damping factor is controlled by gm4 and Cm3 — hence the name. With proper damping the pair can sit near GBW without eroding the phase margin, so gm3 only needs a small fraction of the NMC value.",
	); err != nil {
		return err
	}
	if err := b.step("solve parameters",
		"Please solve the main design parameters.",
		"Target GBW with a generous margin (the capacitive feedthrough of Cm1 into the huge CL costs bandwidth), then size by the calibrated DFCFC ratios.",
		"GBW = k_GBWMargin*GBWspec",
		"Cm1 = k_Cm1",
		"gm1 = 2*pi*GBW*Cm1",
		"gm2 = k_Gm2Ratio*gm1",
		"gm3 = k_Gm3Factor*2*pi*GBW*CL",
		"gm4 = k_Gm4Ratio*gm3",
		"Cm3 = k_Cm3Ratio*Cm1",
		"gmf = k_GmfRatio*gm3",
	); err != nil {
		return err
	}
	cascode, err := b.gainCheck()
	if err != nil {
		return err
	}
	if err := b.powerCheck("gm4/gmid + gmf/gmid"); err != nil {
		return err
	}
	gm1, gm2, gm3 := b.val("gm1"), b.val("gm2"), b.val("gm3")
	b.topo = topology.DFCFC(gm1, gm2, gm3, b.val("Cm1"), b.val("gm4"), b.val("Cm3"), b.val("gmf"))
	if cascode {
		b.topo.Stages[1].A0 = 160
	}
	return b.assembleStep()
}

func (b *builder) designTCFC() error {
	if err := b.step("architecture",
		b.spec.Prompt(),
		"Use transconductance-with-capacitances feedback compensation (TCFC): the outer compensation current is relayed through a current buffer, removing the RHP feedforward zero and decoupling the compensation from the output swing.",
	); err != nil {
		return err
	}
	if err := b.step("solve parameters",
		"Please solve the main design parameters.",
		"Size the input stage against the compensation capacitor Cmt, relay with gmt, and give the output stage headroom over the load pole.",
		"GBW = k_GBWMargin*GBWspec",
		"Cmt = k_Cmt",
		"gm1 = 2*pi*GBW*Cmt",
		"gm2 = k_Gm2Ratio*gm1",
		"gmt = k_GmtRatio*gm1",
		"gm3 = k_Gm3Factor*2*pi*GBW*CL",
		"Cm2 = k_Cm2",
	); err != nil {
		return err
	}
	cascode, err := b.gainCheck()
	if err != nil {
		return err
	}
	if err := b.powerCheck("gmt/gmid"); err != nil {
		return err
	}
	b.topo = topology.TCFC(b.val("gm1"), b.val("gm2"), b.val("gm3"),
		b.val("Cmt"), b.val("gmt"), b.val("Cm2"))
	if cascode {
		b.topo.Stages[1].A0 = 160
	}
	return b.assembleStep()
}

func (b *builder) designAZC() error {
	if err := b.step("architecture",
		b.spec.Prompt(),
		"Use active-zero compensation (AZC): an auxiliary transconductor coupled through a capacitor from the output back to the first-stage output places a tunable LHP zero that lifts the phase near crossover.",
	); err != nil {
		return err
	}
	if err := b.step("solve parameters",
		"Please solve the main design parameters.",
		"Size the skeleton as a Miller amplifier and tune the active-zero branch by the calibrated ratios.",
		"GBW = k_GBWMargin*GBWspec",
		"Cm1 = k_Cm1",
		"gm1 = 2*pi*GBW*Cm1",
		"gm2 = k_Gm2Ratio*gm1",
		"gm3 = k_Gm3Factor*4*pi*GBW*CL",
		"gma = k_GmaRatio*gm1",
		"Cm2 = k_Cm2",
	); err != nil {
		return err
	}
	cascode, err := b.gainCheck()
	if err != nil {
		return err
	}
	if err := b.powerCheck("gma/gmid"); err != nil {
		return err
	}
	b.topo = topology.AZC(b.val("gm1"), b.val("gm2"), b.val("gm3"),
		b.val("Cm1"), b.val("gma"), b.val("Cm2"))
	if cascode {
		b.topo.Stages[1].A0 = 160
	}
	return b.assembleStep()
}

// assembleStep closes every procedure: emit the behavioral netlist.
func (b *builder) assembleStep() error {
	env := topology.DefaultEnv()
	env.CL, env.RL = b.spec.CL, b.spec.RL
	nl, err := b.topo.Elaborate(env)
	if err != nil {
		return err
	}
	b.steps = append(b.steps, Step{Index: len(b.steps), Title: "netlist",
		Question: "Design completed. Please give the final netlist.",
		answer:   "The final behavioral netlist with parameters instantiated is:\n",
		netlist:  nl})
	return nil
}

// ExpectedFoM estimates the figure of merit of a result from its solved
// parameters (before simulation).
func (r *Result) ExpectedFoM() float64 {
	gbw, ok1 := r.Param("GBW")
	p, ok2 := r.Param("P")
	if !ok1 || !ok2 {
		return 0
	}
	return spec.FoM(gbw, r.Spec.CL, p)
}

// FormatParams renders the headline solved parameters.
func (r *Result) FormatParams() string {
	keys := []string{"gm1", "gm2", "gm3", "gm4", "gmf", "gmf1", "gmf2", "gmt", "gma",
		"Cm1", "Cm2", "Cm3", "Cmt", "Rz", "GBW", "P"}
	var parts []string
	for _, k := range keys {
		if v, ok := r.Param(k); ok {
			parts = append(parts, fmt.Sprintf("%s=%s", k, units.Format(v)))
		}
	}
	return strings.Join(parts, " ")
}

// designSMC is the classic two-stage Miller flow — the "other opamp
// topologies" extension the paper's §2.2 promises. The output stage gm2
// is placed against the load pole (p2 = gm2/(2π·CL) well beyond GBW) and
// the input stage against the compensation capacitor.
func (b *builder) designSMC(nulling bool) error {
	if err := b.step("architecture",
		b.spec.Prompt(),
		"The gain requirement is modest, so a two-stage simple Miller compensated (SMC) opamp suffices: one compensation capacitor Cc splits the poles of the two stages. It is the most frugal architecture that still delivers a dominant-pole response.",
	); err != nil {
		return err
	}
	if err := b.step("zero-pole analysis",
		"Please analyze the zero-pole distribution of the two-stage opamp.",
		"Miller splitting pushes the dominant pole to p1 = 1/(2π·Cc·gm2·Ro1·(Ro2||RL)) and the output pole to p2 ≈ gm2/(2π·CL); GBW = gm1/(2π·Cc). The capacitive feedforward leaves an RHP zero at gm2/(2π·Cc).",
	); err != nil {
		return err
	}
	if err := b.step("solve parameters",
		"Please solve the main design parameters.",
		"Target GBW with margin; pick Cc in the pF range; place the output pole a few times beyond GBW (gm2 = k·2π·GBW·CL) and size the input stage to the compensation capacitor.",
		"GBW = k_GBWMargin*GBWspec",
		"Cc = k_Cc",
		"gm1 = 2*pi*GBW*Cc",
		"gm2 = k_Gm2Factor*2*pi*GBW*CL",
	); err != nil {
		return err
	}
	// Two-stage gain budget: Av = A1·gm2·(Ro2||RL); no cascode upgrade
	// path — when the spec wants more, a third stage is the answer (the
	// knowledge base routes such specs to the NMC family instead).
	if err := b.step("gain budget",
		"Does the two-stage gain budget meet the gain spec?",
		"The DC gain is Av = A1·gm2·(Ro2||RL) with Ro2 = A3/gm2; a two-stage cannot be cascode-upgraded much further — if this misses, the spec needs a third stage.",
		"Ro2 = A3/gm2",
		"AvdB = db(A1*gm2*(Ro2||RL))",
	); err != nil {
		return err
	}
	if err := b.step("power budget",
		"Estimate the power consumption and check it against the spec.",
		"Two branches for the input pair, one for the output stage, plus bias overhead.",
		"Itot = 2*gm1/gmid + gm2/gmid + Ibias",
		"P = VDD*Itot",
	); err != nil {
		return err
	}
	gm1, gm2, cc := b.val("gm1"), b.val("gm2"), b.val("Cc")
	if nulling {
		if err := b.step("nulling resistor",
			"How to remove the RHP feedforward zero?",
			"Insert Rz ≈ 1/gm2 in series with Cc; the zero moves into the LHP and adds phase lead near crossover.",
			"Rz = k_RzFactor/gm2",
		); err != nil {
			return err
		}
		b.topo = topology.SMCNR(gm1, gm2, cc, b.val("Rz"))
	} else {
		b.topo = topology.SMC(gm1, gm2, cc)
	}
	return b.assembleStep()
}
