package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	var c Counters
	p := RetryPolicy{MaxAttempts: 4, Counters: &c}
	calls := 0
	err := p.Do(context.Background(), "op", func(context.Context) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	s := c.Snapshot()
	if s.Attempts != 3 || s.Failures != 2 || s.Retries != 2 {
		t.Errorf("counters = %+v", s)
	}
}

func TestRetryExhaustsBudgetWithWrappedError(t *testing.T) {
	sentinel := errors.New("backend down")
	p := RetryPolicy{MaxAttempts: 3}
	calls := 0
	err := p.Do(context.Background(), "op", func(context.Context) error {
		calls++
		return sentinel
	})
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("error chain lost the cause: %v", err)
	}
}

func TestRetryStopsOnPermanent(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5}
	calls := 0
	err := p.Do(context.Background(), "op", func(context.Context) error {
		calls++
		return Permanent(errors.New("bad request"))
	})
	if calls != 1 {
		t.Errorf("permanent error retried: %d calls", calls)
	}
	if !IsPermanent(err) {
		t.Error("permanence lost through wrapping")
	}
}

func TestRetryStopsOnBreakerOpen(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5}
	calls := 0
	err := p.Do(context.Background(), "op", func(context.Context) error {
		calls++
		return fmt.Errorf("guard: %w", ErrBreakerOpen)
	})
	if calls != 1 {
		t.Errorf("open-breaker error retried: %d calls", calls)
	}
	if !errors.Is(err, ErrBreakerOpen) {
		t.Errorf("error chain lost ErrBreakerOpen: %v", err)
	}
}

func TestRetryHonorsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond}
	calls := 0
	err := p.Do(ctx, "op", func(context.Context) error {
		calls++
		cancel()
		return errors.New("fails while caller is gone")
	})
	if calls != 1 {
		t.Errorf("cancelled retry kept going: %d calls", calls)
	}
	if !errors.Is(err, context.Canceled) && err == nil {
		t.Errorf("err = %v, want cancellation surfaced", err)
	}
}

func TestRetryPerAttemptDeadline(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 2, PerAttempt: 5 * time.Millisecond}
	calls := 0
	err := p.Do(context.Background(), "op", func(ctx context.Context) error {
		calls++
		if calls == 1 {
			<-ctx.Done() // first attempt hangs until its deadline
			return ctx.Err()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("second attempt should have succeeded: %v", err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2", calls)
	}
}

// The jitter schedule is a pure function of the seed: each retry waits
// the grown backoff plus Jitter times the next draw of
// rand.New(rand.NewSource(Seed)), in attempt order. A call whose first
// attempt succeeds neither waits nor seeds the source.
func TestRetryDeterministicJitter(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 3 * time.Millisecond,
		Jitter: 0.5, Seed: 42}
	var got []time.Duration
	record := func(_ context.Context, d time.Duration) error {
		got = append(got, d)
		return nil
	}
	fail := func(context.Context) error { return errors.New("always") }
	if err := p.do(context.Background(), "op", fail, record); err == nil {
		t.Fatal("a failing operation succeeded")
	}
	rng := rand.New(rand.NewSource(42))
	var want []time.Duration
	for _, base := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		want = append(want, base+time.Duration(0.5*rng.Float64()*float64(base)))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("delays %v, want %v", got, want)
	}

	got = nil
	succeed := func(context.Context) error { return nil }
	if err := p.do(context.Background(), "op", succeed, record); err != nil || got != nil {
		t.Errorf("succeeding call: err %v, waits %v", err, got)
	}
	// Seeding the source would allocate it; a call that never retries
	// allocates nothing.
	if n := testing.AllocsPerRun(20, func() { _ = p.Do(context.Background(), "op", succeed) }); n != 0 {
		t.Errorf("succeeding call allocated %v times, want 0", n)
	}
}

func TestZeroValuePolicyIsSingleAttempt(t *testing.T) {
	var p RetryPolicy
	calls := 0
	_ = p.Do(context.Background(), "op", func(context.Context) error {
		calls++
		return errors.New("x")
	})
	if calls != 1 {
		t.Errorf("zero-value policy made %d attempts", calls)
	}
}
