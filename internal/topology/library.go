package topology

// This file is the library of named three-stage compensation architectures
// from the multistage-amplifier literature (Leung & Mok 2001, Riad 2019)
// that the Artisan knowledge base selects among. Each constructor takes
// the already-solved design parameters and returns the structural
// Topology; the analytic sizing lives in internal/design.

// stages builds the three-stage skeleton slice with default intrinsic gains.
func stages(gm1, gm2, gm3 float64) []Stage {
	return []Stage{
		{Gm: gm1, A0: DefaultStageA0[0]},
		{Gm: gm2, A0: DefaultStageA0[1]},
		{Gm: gm3, A0: DefaultStageA0[2]},
	}
}

// NMC is nested Miller compensation: outer cap Cm1 (n1→out) and inner cap
// Cm2 (n2→out). The workhorse general-purpose architecture.
func NMC(gm1, gm2, gm3, cm1, cm2 float64) *Topology {
	return &Topology{
		Name:   "NMC",
		Stages: stages(gm1, gm2, gm3),
		Conns: []Connection{
			{Pos: Position{"n1", "out"}, Type: ConnC, C: cm1},
			{Pos: Position{"n2", "out"}, Type: ConnC, C: cm2},
		},
	}
}

// NMCNR is NMC with a nulling resistor in series with the outer Miller
// capacitor, shifting the feedforward RHP zero into the LHP.
func NMCNR(gm1, gm2, gm3, cm1, cm2, rz float64) *Topology {
	t := NMC(gm1, gm2, gm3, cm1, cm2)
	t.Name = "NMCNR"
	t.SetConn(Connection{Pos: Position{"n1", "out"}, Type: ConnSeriesRC, C: cm1, R: rz})
	return t
}

// NMCF is NMC with a feedforward transconductance from the first-stage
// output to the opamp output, forming a push–pull output pair with the
// (inverting) third stage; the LHP zero it creates relaxes the gm3
// requirement and extends bandwidth.
func NMCF(gm1, gm2, gm3, cm1, cm2, gmf float64) *Topology {
	t := NMC(gm1, gm2, gm3, cm1, cm2)
	t.Name = "NMCF"
	t.SetConn(Connection{Pos: Position{"n1", "out"}, Type: ConnGmNParallelC, Gm: gmf, C: cm1})
	return t
}

// MNMC is multipath NMC: a feedforward transconductance from the input to
// the second-stage output creating a parallel fast path.
func MNMC(gm1, gm2, gm3, cm1, cm2, gmf float64) *Topology {
	t := NMC(gm1, gm2, gm3, cm1, cm2)
	t.Name = "MNMC"
	t.SetConn(Connection{Pos: Position{"in", "n2"}, Type: ConnGmP, Gm: gmf})
	return t
}

// NGCC is nested Gm-C compensation: feedforward transconductors replicate
// the signal path at every level (in→n2 and in→out).
func NGCC(gm1, gm2, gm3, cm1, cm2, gmf1, gmf2 float64) *Topology {
	t := NMC(gm1, gm2, gm3, cm1, cm2)
	t.Name = "NGCC"
	t.SetConn(Connection{Pos: Position{"in", "n2"}, Type: ConnGmP, Gm: gmf1})
	t.SetConn(Connection{Pos: Position{"in", "out"}, Type: ConnGmN, Gm: gmf2})
	return t
}

// DFCFC is damping-factor-control frequency compensation: the inner
// Miller capacitor is removed and replaced by a DFC block (gain stage gm4
// with feedback capacitor Cm3) shunting the second-stage output, plus a
// feedforward stage gmf to the output; the block damps the non-dominant
// complex pole pair, which is what lets the opamp drive huge capacitive
// loads (the paper's G-5 scenario and Fig. 7 Q9→A9).
func DFCFC(gm1, gm2, gm3, cm1, gm4, cm3, gmf float64) *Topology {
	return &Topology{
		Name:   "DFCFC",
		Stages: stages(gm1, gm2, gm3),
		Conns: []Connection{
			// Outer Miller cap sharing its position with the feedforward
			// transconductor (push-pull output), as in NMCF.
			{Pos: Position{"n1", "out"}, Type: ConnGmNParallelC, Gm: gmf, C: cm1},
			// The DFC block shunts the first-stage output (the placement
			// that calibrates best against the MNA substrate).
			{Pos: Position{"n1", "0"}, Type: ConnDFCP, Gm: gm4, C: cm3},
		},
	}
}

// TCFC is transconductance-with-capacitances feedback compensation: the
// outer compensation current is relayed through a current buffer
// (cascode), removing the feedforward RHP zero.
func TCFC(gm1, gm2, gm3, cmt, gmt, cm2 float64) *Topology {
	return &Topology{
		Name:   "TCFC",
		Stages: stages(gm1, gm2, gm3),
		Conns: []Connection{
			{Pos: Position{"n1", "out"}, Type: ConnCascodeC, C: cmt, Gm: gmt},
			{Pos: Position{"n2", "out"}, Type: ConnC, C: cm2},
		},
	}
}

// AZC is active-zero compensation: the outer Miller path is a
// transconductor coupled through a capacitor, placing a tunable LHP zero.
func AZC(gm1, gm2, gm3, cm1, gma, cm2 float64) *Topology {
	return &Topology{
		Name:   "AZC",
		Stages: stages(gm1, gm2, gm3),
		Conns: []Connection{
			{Pos: Position{"n1", "out"}, Type: ConnC, C: cm1},
			{Pos: Position{"out", "n1"}, Type: ConnGmPSeriesC, Gm: gma, C: cm2},
		},
	}
}

// SMC is the classic two-stage simple-Miller-compensated opamp: one
// compensation capacitor across the (inverting) output stage. It cannot
// reach three-stage gain levels but is the frugal choice for moderate
// gain specs — the "other opamp topologies" extension of §2.2.
func SMC(gm1, gm2, cc float64) *Topology {
	return &Topology{
		Name:     "SMC",
		TwoStage: true,
		Stages: []Stage{
			{Gm: gm1, A0: DefaultStageA0[0]},
			{Gm: gm2, A0: DefaultStageA0[2]},
		},
		Conns: []Connection{
			{Pos: Position{"n1", "out"}, Type: ConnC, C: cc},
		},
	}
}

// SMCNR is SMC with the classic nulling resistor Rz ≈ 1/gm2 in series
// with the Miller capacitor, moving the feedforward RHP zero to the LHP.
func SMCNR(gm1, gm2, cc, rz float64) *Topology {
	t := SMC(gm1, gm2, cc)
	t.Name = "SMCNR"
	t.SetConn(Connection{Pos: Position{"n1", "out"}, Type: ConnSeriesRC, C: cc, R: rz})
	return t
}
