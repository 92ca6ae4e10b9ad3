package mna

import "fmt"

// Workspace holds the reusable scratch for repeated solves on one Circuit:
// the assembled A(s) matrix (which the dense LU factors in place), the
// pivot array, and an unknown-vector buffer. Every per-frequency operation
// on a compiled circuit — AC sweep points, determinant evaluations for the
// root finder, noise solves — is one assemble + factor in this scratch,
// so steady-state use performs zero allocations.
//
// Ownership and goroutine-safety rules (see DESIGN.md):
//
//   - A Workspace is bound to the Circuit that created it and is NOT safe
//     for concurrent use: each goroutine must own its own Workspace (the
//     parallel sweep gives each worker one).
//   - Slices returned by SolveAt point into the workspace and are valid
//     only until the next call on the same Workspace; callers that need
//     the values longer must copy them.
//   - The Circuit itself stays immutable after Compile, so any number of
//     Workspaces may solve the same Circuit concurrently. Restamped
//     circuits are the exception: their owner must not restamp while a
//     solve is in flight.
type Workspace struct {
	c  *Circuit
	a  *Matrix // assembled A(s); overwritten by the in-place LU
	lu LU
	x  []complex128 // solution buffer returned by SolveAt

	// Noise-analysis scratch (rhs + per-source solution).
	rhs []complex128
	xn  []complex128
}

// NewWorkspace allocates a solver workspace for the circuit. The pooled
// entry points (Circuit.SolveAt, VoltageAt, …) manage workspaces
// internally; allocate one explicitly for tight loops that want the
// zero-allocation guarantee and single-goroutine ownership.
func (c *Circuit) NewWorkspace() *Workspace {
	n := c.Size()
	w := &Workspace{c: c, a: NewMatrix(n), x: make([]complex128, n)}
	w.lu.pivot = make([]int, n)
	w.lu.idiag = make([]complex128, n)
	return w
}

// factorAt assembles A(s) = G + sC into the scratch matrix and factors it
// in place.
func (w *Workspace) factorAt(s complex128) *LU {
	w.a.AddScaled(w.c.G, w.c.C, s)
	w.lu.FactorInto(w.a)
	return &w.lu
}

// SolveAt solves the MNA system at complex frequency s. The returned
// slice (node voltages then branch currents) is workspace-owned: it is
// overwritten by the next call.
func (w *Workspace) SolveAt(s complex128) ([]complex128, error) {
	if err := w.factorAt(s).SolveInto(w.x, w.c.b); err != nil {
		return nil, fmt.Errorf("mna: solve at s=%v: %w", s, err)
	}
	return w.x, nil
}

// DetAt returns det(G + sC) in scaled form, allocation-free.
func (w *Workspace) DetAt(s complex128) ScaledDet {
	return w.factorAt(s).Det()
}

// NumerDetAt returns the Cramer numerator determinant for the given
// output node (A(s) with the output column replaced by the excitation b),
// allocation-free.
func (w *Workspace) NumerDetAt(node string, s complex128) (ScaledDet, error) {
	j, err := w.c.NodeIndex(node)
	if err != nil {
		return ScaledDet{}, err
	}
	return w.numerDet(j, s), nil
}

// numerDet is NumerDetAt for the output at matrix index j.
func (w *Workspace) numerDet(j int, s complex128) ScaledDet {
	w.a.AddScaled(w.c.G, w.c.C, s)
	for i := 0; i < w.a.N; i++ {
		w.a.Set(i, j, w.c.b[i])
	}
	w.lu.FactorInto(w.a)
	return w.lu.Det()
}

// noiseBuffers returns the workspace-owned rhs and solution scratch for
// noise analysis, allocating on first use.
func (w *Workspace) noiseBuffers() (rhs, x []complex128) {
	if w.rhs == nil {
		n := w.c.Size()
		w.rhs = make([]complex128, n)
		w.xn = make([]complex128, n)
	}
	return w.rhs, w.xn
}

// workspace checks a Workspace out of the circuit's pool (allocating one
// only on first use per P).
func (c *Circuit) workspace() *Workspace {
	if w, ok := c.wsPool.Get().(*Workspace); ok {
		return w
	}
	return c.NewWorkspace()
}

// release returns a workspace to the pool.
func (c *Circuit) release(w *Workspace) { c.wsPool.Put(w) }
