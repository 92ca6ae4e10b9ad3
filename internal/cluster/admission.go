package cluster

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"time"
)

// TokenBucket is a classic token-bucket rate limiter with an injectable
// clock. Tokens refill continuously at Rate per second up to Burst; a
// take that cannot be covered reports how long until it could be — the
// Retry-After the server attaches to a 429.
type TokenBucket struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// NewTokenBucket builds a bucket starting full. rate <= 0 panics (an
// admission controller with no rate is a config error, not a default).
func NewTokenBucket(rate, burst float64, now func() time.Time) *TokenBucket {
	if rate <= 0 {
		panic("cluster: token bucket rate must be > 0")
	}
	if burst < 1 {
		burst = 1
	}
	if now == nil {
		now = time.Now
	}
	return &TokenBucket{rate: rate, burst: burst, now: now, tokens: burst, last: now()}
}

// TakeN consumes n tokens if available. When it cannot, no tokens are
// consumed and wait is the time until n tokens will have accrued.
func (b *TokenBucket) TakeN(n float64) (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.tokens = math.Min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
	b.last = now
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	need := n - b.tokens
	return false, time.Duration(need / b.rate * float64(time.Second))
}

// Tokens reports the current token count (refilled to now).
func (b *TokenBucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.tokens = math.Min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
	b.last = now
	return b.tokens
}

// AdmissionConfig tunes per-tenant admission control.
type AdmissionConfig struct {
	// Rate is the sustained request rate each tenant may submit, in
	// design items per second.
	Rate float64
	// Burst is the bucket depth — the instantaneous excursion a tenant is
	// allowed above the sustained rate. Default 2*Rate (min 1).
	Burst float64
	// MaxTenants bounds the tenant table so an attacker cannot exhaust
	// memory by inventing tenant names; beyond it, new tenants share the
	// overflow bucket. Default 1024.
	MaxTenants int
	// Now is the clock; tests substitute a fake. Default time.Now.
	Now func() time.Time
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Burst <= 0 {
		c.Burst = math.Max(1, 2*c.Rate)
	}
	if c.MaxTenants < 1 {
		c.MaxTenants = 1024
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// overflowTenant is the shared bucket for tenants beyond MaxTenants.
const overflowTenant = "!overflow"

// Admission is the per-tenant admission controller: one token bucket
// per tenant plus admit/shed counters. AdmitN runs an item through the
// bucket and then the priority queue in front of the pool, so the
// counters see each item's final outcome.
type Admission struct {
	cfg AdmissionConfig

	mu      sync.Mutex
	tenants map[string]*tenantState
}

type tenantState struct {
	bucket   *TokenBucket
	admitted int64
	shed     int64
}

// NewAdmission builds the controller. A nil return means admission is
// disabled (Rate <= 0) — callers treat nil *Admission as admit-all.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.Rate <= 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	return &Admission{cfg: cfg, tenants: make(map[string]*tenantState)}
}

// Decision is the outcome of one admission check.
type Decision struct {
	OK bool
	// RetryAfter, when !OK, is how long until the tenant's bucket could
	// cover the request.
	RetryAfter time.Duration
}

func (a *Admission) tenant(name string) *tenantState {
	if t, ok := a.tenants[name]; ok {
		return t
	}
	if len(a.tenants) >= a.cfg.MaxTenants {
		if t, ok := a.tenants[overflowTenant]; ok {
			return t
		}
		name = overflowTenant
	}
	t := &tenantState{bucket: NewTokenBucket(a.cfg.Rate, a.cfg.Burst, a.cfg.Now)}
	a.tenants[name] = t
	return t
}

// AdmitN charges tenant n items against its bucket and, when the bucket
// pays, waits at priority pri for a lease on q. d reports the bucket's
// decision; err is ErrShed when the wait queue is full and ctx.Err() when
// the caller gives up while waiting. On success the returned release
// must be called once the admitted work reaches a terminal state.
//
// The items count as admitted only once they hold the lease, and as shed
// when the bucket or the wait queue refuses them; items whose caller gave
// up count as neither. A nil *Admission admits everything.
func (a *Admission) AdmitN(ctx context.Context, q *PQueue, tenantName string, n, pri int) (release func(), d Decision, err error) {
	if a == nil {
		return func() {}, Decision{OK: true}, nil
	}
	if n < 1 {
		n = 1
	}
	a.mu.Lock()
	t := a.tenant(tenantName)
	a.mu.Unlock()
	d.OK, d.RetryAfter = t.bucket.TakeN(float64(n))
	if d.OK {
		release, err = q.Acquire(ctx, tenantName, pri)
	}
	a.mu.Lock()
	switch {
	case d.OK && err == nil:
		t.admitted += int64(n)
	case !d.OK || errors.Is(err, ErrShed):
		t.shed += int64(n)
	}
	a.mu.Unlock()
	return release, d, err
}

// TenantStats is the observable per-tenant admission state.
type TenantStats struct {
	Tenant   string  `json:"tenant"`
	Admitted int64   `json:"admitted"`
	Shed     int64   `json:"shed"`
	Tokens   float64 `json:"tokens"`
}

// Snapshot returns per-tenant stats sorted by tenant name.
func (a *Admission) Snapshot() []TenantStats {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := make([]TenantStats, 0, len(a.tenants))
	for name, t := range a.tenants {
		out = append(out, TenantStats{
			Tenant: name, Admitted: t.admitted, Shed: t.shed, Tokens: t.bucket.Tokens(),
		})
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Totals sums admitted and shed across tenants (for the aggregate
// artisan_admit_total / artisan_shed_total counters).
func (a *Admission) Totals() (admitted, shed int64) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range a.tenants {
		admitted += t.admitted
		shed += t.shed
	}
	return admitted, shed
}
