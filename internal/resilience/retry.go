package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// RetryPolicy retries an operation with exponential backoff. The jitter
// is drawn from a seeded generator, so a fixed (Seed, call sequence)
// yields a fixed delay schedule — chaos tests stay reproducible.
//
// The zero value is a valid "one attempt, no waiting" policy, which lets
// callers thread a RetryPolicy unconditionally and switch resilience on
// by configuration.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget; values below 1 mean a
	// single attempt (no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; 0 retries
	// immediately.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff. Default 2s.
	MaxDelay time.Duration
	// Multiplier grows the delay between attempts. Default 2.
	Multiplier float64
	// Jitter adds up to this fraction of the current delay, drawn
	// deterministically from Seed. 0 disables jitter.
	Jitter float64
	// PerAttempt, when positive, deadline-bounds each attempt; an attempt
	// exceeding it fails with context.DeadlineExceeded and the next one
	// (if budget remains) starts fresh.
	PerAttempt time.Duration
	// Seed feeds the jitter generator.
	Seed int64
	// Counters, when non-nil, receives attempt/failure/retry events.
	Counters *Counters
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// Do runs fn under the policy. It stops early — without consuming the
// remaining budget — when fn succeeds, when the error is Permanent or a
// breaker short-circuit, or when the parent ctx is done. The returned
// error wraps the last attempt's error, so callers can match fault
// classes with errors.Is.
func (p RetryPolicy) Do(ctx context.Context, op string, fn func(context.Context) error) error {
	return p.do(ctx, op, fn, sleep)
}

// do is Do with the backoff wait passed in, so a test can read the delay
// schedule without sleeping through it.
func (p RetryPolicy) do(ctx context.Context, op string, fn func(context.Context) error,
	wait func(context.Context, time.Duration) error) error {
	p = p.withDefaults()
	// The jitter source is seeded on its first draw: most calls succeed at
	// once, and seeding a math/rand source fills a 4.9 KB table.
	var rng *rand.Rand
	delay := p.BaseDelay
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("resilience: %s: %w", op, cerr)
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.PerAttempt > 0 {
			actx, cancel = context.WithTimeout(ctx, p.PerAttempt)
		}
		if p.Counters != nil {
			p.Counters.Attempts.Add(1)
		}
		err := fn(actx)
		cancel()
		if err == nil {
			return nil
		}
		if p.Counters != nil {
			p.Counters.Failures.Add(1)
		}
		if attempt >= p.MaxAttempts || IsPermanent(err) ||
			errors.Is(err, ErrBreakerOpen) || ctx.Err() != nil {
			return fmt.Errorf("resilience: %s failed after %d attempt(s): %w", op, attempt, err)
		}
		if p.Counters != nil {
			p.Counters.Retries.Add(1)
		}
		d := delay
		if p.Jitter > 0 && d > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(p.Seed))
			}
			d += time.Duration(p.Jitter * rng.Float64() * float64(d))
		}
		if d > 0 {
			if err := wait(ctx, d); err != nil {
				return fmt.Errorf("resilience: %s cancelled during backoff: %w", op, err)
			}
		}
		delay = time.Duration(float64(delay) * p.Multiplier)
		if delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}

// sleep waits d, or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
