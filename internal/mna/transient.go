package mna

import (
	"errors"
	"fmt"
	"math"
)

// Transient analysis: trapezoidal integration of the MNA DAE
// C·x'(t) + G·x(t) = b·u(t), with optional saturating transconductors.
//
// The AC model of Fig. 1(b) is linear, but slewing — the limit the
// classical large-signal figure of merit measures — is a *nonlinear*
// phenomenon: a real transconductance stage can deliver at most its bias
// current. SatLimits models this by replacing selected VCCS elements'
// i = gm·v characteristic with the smooth saturating
// i = Imax·tanh(gm·v/Imax), solved by Newton iteration at each timestep.
//
// The integrator runs on the sparse real engine: the circuit's structural
// pattern is analyzed once, the companion matrix is factored once, and
// each step (or Newton Jacobian refresh) is a numeric Refactor replaying
// the recorded pivot sequence. All step state lives in the circuit's
// transient scratch, so repeated integrations on a circuit perform no
// allocations beyond the returned waveform. The Newton Jacobian is
// additionally frozen across iterations and steps while the saturating
// devices' effective transconductances hold still (within jacDriftTol),
// which collapses the settled tail of a step response to one
// refactor-free chord iteration per step.

// ErrNewtonNoConverge reports that a transient step's Newton iteration
// exhausted TranOpts.MaxNewton without meeting its tolerance.
var ErrNewtonNoConverge = errors.New("transient Newton did not converge")

// TranOpts configures a transient run.
type TranOpts struct {
	TEnd float64 // end time, s
	Dt   float64 // fixed timestep, s
	// Input is the excitation waveform u(t) scaling the netlist's
	// independent sources; nil means unit step u(t) = 1 for t ≥ 0.
	Input func(t float64) float64
	// SatLimits maps VCCS device names to their maximum output current
	// (A). Devices not listed stay linear.
	SatLimits map[string]float64
	// MaxNewton bounds the Newton iterations per step (default 25).
	MaxNewton int
	// Tol is the Newton convergence tolerance on the solution update
	// (default 1e-9 relative).
	Tol float64
}

// TranPoint is one sample of the transient waveform.
type TranPoint struct {
	T float64
	V float64 // voltage of the observed node
}

// vccsInfo caches a saturating transconductor's stamp geometry: matrix
// indices (-1 for ground) and the pattern slots of its four G stamps
// (filled by Transient once the pattern is known; -1 where a terminal is
// grounded).
type vccsInfo struct {
	name           string
	op, om, cp, cm int
	gm             float64
	imax           float64
	slot           [4]int // pattern indices of (op,cp) (op,cm) (om,cp) (om,cm)
}

// jacDriftTol is the relative effective-transconductance drift that
// triggers a Newton Jacobian refresh. Below it the chord iteration's
// contraction factor is ~jacDriftTol per iteration, so a frozen Jacobian
// still reaches the 1e-9 default tolerance in two iterations.
const jacDriftTol = 1e-5

// stepRoundTol absorbs float rounding in the step-count computation so a
// window that is a whole multiple of Dt (up to roundoff) does not gain a
// spurious final micro-step.
const stepRoundTol = 1e-9

// tranScratch is a circuit's transient engine state: its structural
// pattern, the analyzed factorization, and every pattern-aligned value
// array and step vector. The first Transient on a circuit makes it; later
// runs reuse it, which is what brings them to zero steady-state
// allocations.
type tranScratch struct {
	pat *Pattern
	lu  SparseLU

	gv, cv  []float64 // pattern-aligned Re(G_lin), Re(C)
	aBase   []float64 // gv + (2/h)·cv at the current step size
	jacV    []float64 // aBase + sat geff stamps
	bReal   []float64
	hasC    []bool
	x, xNew []float64
	cdx, cx []float64
	rhs, f  []float64
	dx      []float64

	satTanh  []float64
	lastGeff []float64
}

// tranState returns the circuit's transient scratch, sized for nSats
// saturating devices, making it and analyzing the pattern on first use.
func (c *Circuit) tranState(nSats int) *tranScratch {
	ts := c.tran
	if ts == nil {
		pat := c.pattern()
		n, nnz := pat.N, pat.NNZ()
		ts = &tranScratch{pat: pat}
		c.tran = ts
		ts.lu.Analyze(pat)
		ts.gv = make([]float64, nnz)
		ts.cv = make([]float64, nnz)
		ts.aBase = make([]float64, nnz)
		ts.jacV = make([]float64, nnz)
		vecs := make([]float64, 8*n)
		ts.bReal, vecs = vecs[:n], vecs[n:]
		ts.x, vecs = vecs[:n], vecs[n:]
		ts.xNew, vecs = vecs[:n], vecs[n:]
		ts.cdx, vecs = vecs[:n], vecs[n:]
		ts.cx, vecs = vecs[:n], vecs[n:]
		ts.rhs, vecs = vecs[:n], vecs[n:]
		ts.f, vecs = vecs[:n], vecs[n:]
		ts.dx = vecs[:n]
		ts.hasC = make([]bool, n)
	}
	if cap(ts.satTanh) < nSats {
		ts.satTanh = make([]float64, nSats)
		ts.lastGeff = make([]float64, nSats)
	}
	ts.satTanh = ts.satTanh[:nSats]
	ts.lastGeff = ts.lastGeff[:nSats]
	return ts
}

// Transient integrates the circuit and returns the waveform of node out.
func (c *Circuit) Transient(out string, opts TranOpts) ([]TranPoint, error) {
	j, err := c.NodeIndex(out)
	if err != nil {
		return nil, err
	}
	// Negated so NaN fails; the ratio bound rejects +Inf and any window
	// whose step count TEnd/Dt does not fit an int.
	if !(opts.Dt > 0 && opts.TEnd >= opts.Dt && opts.TEnd/opts.Dt < math.MaxInt) {
		return nil, fmt.Errorf("mna: bad transient window tEnd=%g dt=%g", opts.TEnd, opts.Dt)
	}
	if opts.Input == nil {
		opts.Input = func(t float64) float64 { return 1 }
	}
	if opts.MaxNewton <= 0 {
		opts.MaxNewton = 25
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-9
	}

	sats, err := c.satDevices(opts.SatLimits)
	if err != nil {
		return nil, err
	}

	ts := c.tranState(len(sats))
	pat := ts.pat
	n := pat.N
	h := opts.Dt

	// Gather the linear part: Re(G) with the saturating VCCS stamps
	// removed (they are applied nonlinearly instead), plus Re(C).
	for col := 0; col < n; col++ {
		for i := pat.ColPtr[col]; i < pat.ColPtr[col+1]; i++ {
			ts.gv[i] = real(c.G.At(pat.Rows[i], col))
			ts.cv[i] = real(c.C.At(pat.Rows[i], col))
		}
	}
	for si := range sats {
		s := &sats[si]
		resolve := func(r, cl int) int {
			if r < 0 || cl < 0 {
				return -1
			}
			return pat.Index(r, cl)
		}
		s.slot = [4]int{
			resolve(s.op, s.cp), resolve(s.op, s.cm),
			resolve(s.om, s.cp), resolve(s.om, s.cm),
		}
		addGeffStamps(ts.gv, s, -s.gm)
	}
	for r := range ts.hasC {
		ts.hasC[r] = false
	}
	for col := 0; col < n; col++ {
		for i := pat.ColPtr[col]; i < pat.ColPtr[col+1]; i++ {
			if ts.cv[i] != 0 {
				ts.hasC[pat.Rows[i]] = true
			}
		}
	}
	for i, v := range c.b {
		ts.bReal[i] = real(v)
	}

	// Consistent initialization at t = 0⁺: capacitor voltages start at
	// zero but the algebraic variables (source rows, resistive nodes)
	// must already satisfy their constraints. A single backward-Euler
	// micro-step from the all-zero state — (G + C/δ)x = b·u(0) with
	// δ ≪ h — pins the capacitor voltages while solving the algebraic
	// part exactly. A singular init system means no consistent state
	// exists and the whole waveform would be garbage, so it is an error,
	// exactly like the main-loop solves.
	{
		delta := h * 1e-9
		for i := range ts.jacV { // jacV doubles as the init value scratch
			ts.jacV[i] = ts.gv[i] + ts.cv[i]/delta
		}
		if !ts.lu.Factor(ts.jacV) {
			return nil, singularf("mna: transient consistent initialization singular (dt=%g)", h)
		}
		u0 := opts.Input(0)
		for i := range ts.rhs {
			ts.rhs[i] = ts.bReal[i] * u0
		}
		if err := ts.lu.SolveInto(ts.x, ts.rhs); err != nil {
			return nil, fmt.Errorf("mna: transient consistent initialization: %w", err)
		}
	}

	// Companion-model trapezoidal form: capacitors integrate with the
	// trapezoidal rule while algebraic rows (sources, resistive nodes,
	// where the C row vanishes) stay exact at t_{n+1}:
	//
	//   (G + 2C/h)·x_{n+1} + i_sat(x_{n+1})
	//       = b(t_{n+1}) + (2C/h)·x_n + C·x'_n
	//
	// with the derivative term obtained from the previous collocation,
	// C·x'_n = b(t_n) − G·x_n − i_sat(x_n).
	setBase := func(hs float64) {
		r := 2 / hs
		for i := range ts.aBase {
			ts.aBase[i] = ts.gv[i] + r*ts.cv[i]
		}
	}
	setBase(h)
	jacFresh := false
	if len(sats) == 0 {
		if !ts.lu.Refactor(ts.aBase) {
			return nil, singularf("mna: transient system singular at dt=%g", h)
		}
		jacFresh = true
	}

	// The final sample is clamped to TEnd: a window that is not a whole
	// multiple of Dt ends with one shorter step rather than overshooting
	// past the requested end time.
	steps := int(math.Ceil(opts.TEnd/h - stepRoundTol))
	if steps < 1 {
		steps = 1
	}
	pts := make([]TranPoint, 0, steps+1)
	pts = append(pts, TranPoint{0, ts.x[j]})

	hs := h
	for s := 1; s <= steps; s++ {
		t0 := float64(s-1) * h
		t1 := float64(s) * h
		if s == steps {
			t1 = opts.TEnd
			if last := opts.TEnd - t0; last < hs*(1-1e-12) {
				hs = last
				setBase(hs)
				jacFresh = false
				if len(sats) == 0 {
					if !ts.lu.Refactor(ts.aBase) {
						return nil, singularf("mna: transient system singular at dt=%g", hs)
					}
					jacFresh = true
				}
			}
		}
		u0, u1 := opts.Input(t0), opts.Input(t1)

		// cdx = C·x'_n = b(t_n) − G_lin·x_n − i_sat(x_n).
		for r := range ts.cdx {
			ts.cdx[r] = ts.bReal[r] * u0
		}
		matVecSub(ts.cdx, pat, ts.gv, ts.x)
		satTanh(ts.satTanh, sats, ts.x)
		addSatCurrents(ts.cdx, sats, ts.satTanh, -1)

		// rhs = b(t_{n+1}) + (2C/h)·x_n + C·x'_n, with the history terms
		// masked to rows that have capacitor stamps (algebraic rows stay
		// exact collocations of the new time point).
		for r := range ts.cx {
			ts.cx[r] = 0
		}
		matVecAdd(ts.cx, pat, ts.cv, ts.x)
		rh := 2 / hs
		for r := range ts.rhs {
			v := ts.bReal[r] * u1
			if ts.hasC[r] {
				v += rh*ts.cx[r] + ts.cdx[r]
			}
			ts.rhs[r] = v
		}

		if len(sats) == 0 {
			if err := ts.lu.SolveInto(ts.xNew, ts.rhs); err != nil {
				return nil, err
			}
		} else {
			// Newton on F(x) = (G_lin + 2C/h)x + i_sat(x) − rhs = 0, with
			// the previous step as predictor and a drift-gated frozen
			// Jacobian (see jacDriftTol).
			copy(ts.xNew, ts.x)
			converged := false
			for it := 0; it < opts.MaxNewton; it++ {
				for r := range ts.f {
					ts.f[r] = -ts.rhs[r]
				}
				matVecAdd(ts.f, pat, ts.aBase, ts.xNew)
				if it > 0 {
					// Iteration 0's predictor is a copy of x, whose tanh
					// values the history term above just computed.
					satTanh(ts.satTanh, sats, ts.xNew)
				}
				addSatCurrents(ts.f, sats, ts.satTanh, 1)
				refresh := !jacFresh
				for si := range sats {
					geff := sats[si].gm * (1 - ts.satTanh[si]*ts.satTanh[si])
					if math.Abs(geff-ts.lastGeff[si]) > jacDriftTol*sats[si].gm {
						refresh = true
					}
				}
				if refresh {
					copy(ts.jacV, ts.aBase)
					for si := range sats {
						geff := sats[si].gm * (1 - ts.satTanh[si]*ts.satTanh[si])
						ts.lastGeff[si] = geff
						addGeffStamps(ts.jacV, &sats[si], geff)
					}
					if !ts.lu.Refactor(ts.jacV) {
						return nil, singularf("mna: transient Newton singular at t=%g", t1)
					}
					jacFresh = true
				}
				if err := ts.lu.SolveInto(ts.dx, ts.f); err != nil {
					return nil, singularf("mna: transient Newton singular at t=%g", t1)
				}
				if newtonStepApply(ts.xNew, ts.dx) < opts.Tol {
					converged = true
					break
				}
			}
			if !converged {
				return nil, fmt.Errorf("mna: %w at t=%g", ErrNewtonNoConverge, t1)
			}
		}
		copy(ts.x, ts.xNew)
		pts = append(pts, TranPoint{t1, ts.x[j]})
	}
	return pts, nil
}

// newtonStepApply applies the Newton update to x in place (x ← x − dx,
// where J·dx = F(x)) and returns the maximum relative step. The relative
// denominator is the PRE-update iterate: dividing by the post-update
// value would let a step that exactly cancels a component read as
// converged (|d|/(≈0 + ε) is huge only if ε is the floor — with the old
// post-update form, |d|/(|x−d|+ε) collapses when x−d ≈ 0 despite the
// iterate moving by its whole magnitude).
func newtonStepApply(x, dx []float64) float64 {
	maxRel := 0.0
	for i := range x {
		d := dx[i]
		rel := math.Abs(d) / (math.Abs(x[i]) + 1e-6)
		x[i] -= d
		if rel > maxRel {
			maxRel = rel
		}
	}
	return maxRel
}

// satDevices resolves SatLimits names to stamp geometry.
func (c *Circuit) satDevices(limits map[string]float64) ([]vccsInfo, error) {
	if len(limits) == 0 {
		return nil, nil
	}
	var out []vccsInfo
	for _, d := range c.nl.Devices {
		imax, ok := limits[d.Name]
		if !ok {
			continue
		}
		if d.Kind.String() != "G" {
			return nil, fmt.Errorf("mna: saturation limit on non-VCCS device %q", d.Name)
		}
		if imax <= 0 {
			return nil, fmt.Errorf("mna: non-positive saturation current for %q", d.Name)
		}
		idx := func(node string) int {
			if node == "0" {
				return -1
			}
			return c.nodeIdx[node]
		}
		out = append(out, vccsInfo{
			name: d.Name,
			op:   idx(d.Nodes[0]), om: idx(d.Nodes[1]),
			cp: idx(d.Nodes[2]), cm: idx(d.Nodes[3]),
			gm: d.Value, imax: imax,
		})
	}
	if len(out) != len(limits) {
		return nil, fmt.Errorf("mna: some saturation-limited devices not found in circuit")
	}
	return out, nil
}

// addGeffStamps accumulates a VCCS four-entry stamp of transconductance g
// into a pattern-aligned value array via the device's resolved slots.
func addGeffStamps(vals []float64, s *vccsInfo, g float64) {
	if i := s.slot[0]; i >= 0 {
		vals[i] += g
	}
	if i := s.slot[1]; i >= 0 {
		vals[i] -= g
	}
	if i := s.slot[2]; i >= 0 {
		vals[i] -= g
	}
	if i := s.slot[3]; i >= 0 {
		vals[i] += g
	}
}

func ctrlVoltage(x []float64, s *vccsInfo) float64 {
	v := 0.0
	if s.cp >= 0 {
		v += x[s.cp]
	}
	if s.cm >= 0 {
		v -= x[s.cm]
	}
	return v
}

// satTanh writes each saturating device's tanh operating point at x into
// th: i_sat = imax·th, and the Newton loop derives the effective
// transconductance gm·(1 − th²) from it for free.
func satTanh(th []float64, sats []vccsInfo, x []float64) {
	for si := range sats {
		s := &sats[si]
		v := ctrlVoltage(x, s)
		th[si] = math.Tanh(s.gm * v / s.imax)
	}
}

// addSatCurrents accumulates w·i_sat into f at the output nodes, from the
// operating points th that satTanh computed. Convention matches the
// linear stamp: current i leaves node op and enters om, i.e. KCL rows get
// +i at op and −i at om.
func addSatCurrents(f []float64, sats []vccsInfo, th []float64, w float64) {
	for si := range sats {
		s := &sats[si]
		i := s.imax * th[si]
		if s.op >= 0 {
			f[s.op] += w * i
		}
		if s.om >= 0 {
			f[s.om] -= w * i
		}
	}
}
