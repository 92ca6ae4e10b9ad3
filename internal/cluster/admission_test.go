package cluster

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for deterministic bucket tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestTokenBucket(t *testing.T) {
	clk := newFakeClock()
	b := NewTokenBucket(1, 2, clk.now) // 1 token/s, depth 2, starts full

	if ok, _ := b.TakeN(2); !ok {
		t.Fatal("full bucket refused its burst")
	}
	ok, wait := b.TakeN(1)
	if ok {
		t.Fatal("empty bucket granted a token")
	}
	if wait != time.Second {
		t.Fatalf("wait = %v, want 1s for 1 token at 1/s", wait)
	}
	// A refused take consumes nothing: the same request succeeds once the
	// advertised wait has passed.
	clk.advance(time.Second)
	if ok, _ := b.TakeN(1); !ok {
		t.Fatal("bucket still empty after the advertised wait")
	}
	// Refill caps at burst, not unbounded.
	clk.advance(time.Hour)
	if got := b.Tokens(); got != 2 {
		t.Fatalf("Tokens = %g after long idle, want burst cap 2", got)
	}
}

func TestAdmissionDisabled(t *testing.T) {
	if a := NewAdmission(AdmissionConfig{Rate: 0}); a != nil {
		t.Fatal("Rate 0 should disable admission (nil controller)")
	}
	var a *Admission // nil = admit-all
	if _, d, err := a.AdmitN(context.Background(), nil, "anyone", 100, 0); !d.OK || err != nil {
		t.Fatal("nil admission must admit everything")
	}
	if got := a.Snapshot(); got != nil {
		t.Fatalf("nil Snapshot = %v", got)
	}
	if ad, sh := a.Totals(); ad != 0 || sh != 0 {
		t.Fatalf("nil Totals = %d/%d", ad, sh)
	}
}

// admitN runs one AdmitN against q with a background context.
func admitN(a *Admission, q *PQueue, tenant string, n int) (Decision, error) {
	_, d, err := a.AdmitN(context.Background(), q, tenant, n, 0)
	return d, err
}

// TestAdmissionTenantIsolation: one tenant exhausting its bucket must
// not shed another tenant's traffic.
func TestAdmissionTenantIsolation(t *testing.T) {
	clk := newFakeClock()
	a := NewAdmission(AdmissionConfig{Rate: 1, Burst: 2, Now: clk.now})
	q := NewPQueue(8, 1, nil)

	if d, err := admitN(a, q, "alice", 2); !d.OK || err != nil {
		t.Fatal("alice's burst refused")
	}
	d, _ := admitN(a, q, "alice", 1)
	if d.OK {
		t.Fatal("alice admitted over rate")
	}
	if d.RetryAfter != time.Second {
		t.Fatalf("alice RetryAfter = %v, want 1s", d.RetryAfter)
	}
	if d, err := admitN(a, q, "bob", 2); !d.OK || err != nil {
		t.Fatal("bob shed because of alice's traffic")
	}

	admitted, shed := a.Totals()
	if admitted != 4 || shed != 1 {
		t.Fatalf("Totals = %d admitted / %d shed, want 4/1", admitted, shed)
	}
	snap := a.Snapshot()
	if len(snap) != 2 || snap[0].Tenant != "alice" || snap[1].Tenant != "bob" {
		t.Fatalf("Snapshot = %+v", snap)
	}
	if snap[0].Admitted != 2 || snap[0].Shed != 1 || snap[1].Admitted != 2 || snap[1].Shed != 0 {
		t.Fatalf("Snapshot counters = %+v", snap)
	}
}

// TestAdmissionOverflowTenant: beyond MaxTenants, new tenant names share
// one overflow bucket instead of growing the table without bound.
func TestAdmissionOverflowTenant(t *testing.T) {
	clk := newFakeClock()
	a := NewAdmission(AdmissionConfig{Rate: 1, Burst: 1, MaxTenants: 2, Now: clk.now})
	q := NewPQueue(8, 1, nil)
	admitN(a, q, "t1", 1)
	admitN(a, q, "t2", 1)
	// Table full: t3 and t4 share the overflow bucket (burst 1 total).
	if d, _ := admitN(a, q, "t3", 1); !d.OK {
		t.Fatal("first overflow take refused")
	}
	if d, _ := admitN(a, q, "t4", 1); d.OK {
		t.Fatal("overflow bucket should be shared — t4 must be refused after t3 drained it")
	}
	snap := a.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("tenant table grew to %d entries, want 2 + overflow", len(snap))
	}
	if snap[0].Tenant != overflowTenant {
		t.Fatalf("Snapshot[0] = %q, want the overflow tenant first (sorts before letters)", snap[0].Tenant)
	}
}

func TestAdmissionDefaults(t *testing.T) {
	cfg := AdmissionConfig{Rate: 5}.withDefaults()
	if cfg.Burst != 10 {
		t.Errorf("default Burst = %g, want 2*Rate", cfg.Burst)
	}
	if cfg.MaxTenants != 1024 {
		t.Errorf("default MaxTenants = %d", cfg.MaxTenants)
	}
	if cfg.Now == nil {
		t.Error("default Now missing")
	}
}
