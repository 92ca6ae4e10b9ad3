package agents

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"artisan/internal/llm"
	"artisan/internal/netlist"
	"artisan/internal/resilience"
	"artisan/internal/spec"
)

// chaosSession builds a G-1 session whose designer is wrapped with the
// given injector and whose resilience ladder uses fast test timings.
func chaosSession(t *testing.T, cfg resilience.InjectorConfig, res *Resilience) *Session {
	t.Helper()
	g1, err := spec.Group("G-1")
	if err != nil {
		t.Fatal(err)
	}
	m := llm.NewChaosDesigner(llm.NewDomainModel(1, 0), resilience.NewInjector(cfg))
	s := NewSession(m, g1, DefaultOptions())
	s.Res = res
	return s
}

func fastRetry(attempts int) resilience.RetryPolicy {
	return resilience.RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Seed:        1,
	}
}

// TestChaosFaultClasses drives the full session through each injected
// fault class and asserts the contract per class: transient errors are
// absorbed by retries, a dead designer degrades to the fallback model,
// and corrupted-but-parseable outputs are caught by spec verification —
// never by a crash.
func TestChaosFaultClasses(t *testing.T) {
	fallback := llm.NewDomainModel(9, 0)
	cases := []struct {
		name        string
		cfg         resilience.InjectorConfig
		res         *Resilience
		wantSuccess bool
		wantDegrade bool
		wantInChat  string
	}{
		{
			name:        "tool error absorbed by retries",
			cfg:         resilience.InjectorConfig{Seed: 2, ErrorRate: 0.3},
			res:         &Resilience{Retry: fastRetry(5)},
			wantSuccess: true,
		},
		{
			name:        "persistent error degrades to fallback",
			cfg:         resilience.InjectorConfig{Seed: 2, ErrorRate: 1},
			res:         &Resilience{Retry: fastRetry(3), Fallback: fallback},
			wantSuccess: true,
			wantDegrade: true,
			wantInChat:  "[resilience]",
		},
		{
			name: "hung backend hits per-attempt deadline then degrades",
			cfg:  resilience.InjectorConfig{Seed: 2, TimeoutRate: 1, Stall: time.Second},
			res: &Resilience{
				Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond,
					PerAttempt: 5 * time.Millisecond, Seed: 1},
				Fallback: fallback,
			},
			wantSuccess: true,
			wantDegrade: true,
		},
		{
			name:        "corrupted outputs caught by verification",
			cfg:         resilience.InjectorConfig{Seed: 2, CorruptRate: 1},
			res:         &Resilience{Retry: fastRetry(3), Fallback: fallback},
			wantSuccess: false,
			wantInChat:  `unknown architecture "MPMC"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := chaosSession(t, tc.cfg, tc.res)
			out, err := s.Run(context.Background())
			if err != nil {
				t.Fatalf("chaos must not surface as a session error: %v", err)
			}
			if out.Success != tc.wantSuccess {
				t.Errorf("success = %v, want %v (reason %q)", out.Success, tc.wantSuccess, out.FailReason)
			}
			if out.Degraded != tc.wantDegrade {
				t.Errorf("degraded = %v, want %v", out.Degraded, tc.wantDegrade)
			}
			if tc.wantInChat != "" && !strings.Contains(out.Transcript.Chat(), tc.wantInChat) {
				t.Errorf("transcript missing %q:\n%s", tc.wantInChat, out.Transcript.Chat())
			}
			if tc.wantDegrade && out.Resilience.Fallbacks == 0 {
				t.Errorf("degraded outcome with zero fallback count: %+v", out.Resilience)
			}
		})
	}
}

// archCounter counts the architecture proposals a designer answers.
type archCounter struct {
	llm.DesignerModel
	calls int
}

func (c *archCounter) ProposeArchitectures(ctx context.Context, s spec.Spec, k int) ([]llm.ArchChoice, error) {
	c.calls++
	return c.DesignerModel.ProposeArchitectures(ctx, s, k)
}

// A spec no architecture suits fails identically on every attempt, so
// the retry policy must not back off and re-ask: the primary designer is
// asked once, the fallback once, and the session fails with the
// model's own reason.
func TestUnsuitedSpecSkipsRetries(t *testing.T) {
	sp, err := spec.Group("G-5")
	if err != nil {
		t.Fatal(err)
	}
	sp.Name, sp.CL = "huge-load", 10e-9 // beyond every architecture's MaxCL
	primary := &archCounter{DesignerModel: llm.NewDomainModel(1, 0)}
	fallback := &archCounter{DesignerModel: llm.NewDomainModel(1, 0)}
	var c resilience.Counters
	s := NewSession(primary, sp, DefaultOptions())
	s.Res = &Resilience{Retry: fastRetry(3), Fallback: fallback, Counters: &c}
	out, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Success || !strings.Contains(out.FailReason, "no architecture suits spec huge-load") {
		t.Errorf("outcome = success %v, reason %q; want the unsuited-spec failure", out.Success, out.FailReason)
	}
	if primary.calls != 1 || fallback.calls != 1 {
		t.Errorf("designer asked %d times, fallback %d; want 1 and 1", primary.calls, fallback.calls)
	}
	if snap := c.Snapshot(); snap.Retries != 0 || snap.Fallbacks != 1 {
		t.Errorf("counters = %+v, want 0 retries and 1 fallback", snap)
	}
}

// Without a resilience ladder the injected error surfaces as a graceful
// session failure whose reason carries the typed injection sentinel.
func TestChaosFailFastWithoutResilience(t *testing.T) {
	s := chaosSession(t, resilience.InjectorConfig{Seed: 1, ErrorRate: 1}, nil)
	out, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Success {
		t.Fatal("fail-fast session should not survive a dead designer")
	}
	if !strings.Contains(out.FailReason, "injected") {
		t.Errorf("FailReason = %q, want the injected fault named", out.FailReason)
	}
}

// The typed error contract at the tool layer: injected faults stay
// matchable through every wrapping layer.
func TestChaosTypedErrors(t *testing.T) {
	g1, _ := spec.Group("G-1")
	sim := NewSimulator()
	sim.Faults = resilience.NewInjector(resilience.InjectorConfig{Seed: 1, ErrorRate: 1})
	topo, err := llm.NewDomainModel(1, 0).ProposeKnobs(context.Background(), "NMC", g1)
	if err != nil || topo == nil {
		t.Fatal(err)
	}
	nl := mustNetlist(t)
	if _, err := sim.MeasureNetlist(context.Background(), nl); !errors.Is(err, resilience.ErrInjected) {
		t.Errorf("err = %v, want wrapped ErrInjected", err)
	}

	stall := NewSimulator()
	stall.Faults = resilience.NewInjector(resilience.InjectorConfig{Seed: 1, TimeoutRate: 1, Stall: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := stall.MeasureNetlist(ctx, nl); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want wrapped DeadlineExceeded", err)
	}
}

// A chaotic simulator backend opens the breaker instead of being hammered
// for every candidate and retry.
func TestChaosSimulatorBreakerOpens(t *testing.T) {
	var c resilience.Counters
	s := chaosSession(t, resilience.InjectorConfig{Seed: 1},
		&Resilience{
			Retry:    fastRetry(4),
			Breaker:  resilience.NewBreaker(resilience.BreakerConfig{Threshold: 2, Cooldown: time.Hour, Counters: &c}),
			Counters: &c,
		})
	s.Sim.Faults = resilience.NewInjector(resilience.InjectorConfig{Seed: 1, ErrorRate: 1})
	out, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Success {
		t.Fatal("dead simulator should fail the session")
	}
	if s.Res.Breaker.State() != resilience.BreakerOpen {
		t.Errorf("breaker state = %v, want open", s.Res.Breaker.State())
	}
	if out.Resilience.BreakerOpens < 1 {
		t.Errorf("counters = %+v, want an open recorded", out.Resilience)
	}
}

// Same seeds, same chaos: a chaotic session replays deterministically.
func TestChaosDeterministicSession(t *testing.T) {
	run := func() (*Outcome, string) {
		s := chaosSession(t,
			resilience.InjectorConfig{Seed: 5, ErrorRate: 0.3, CorruptRate: 0.1},
			&Resilience{Retry: fastRetry(4), Fallback: llm.NewDomainModel(9, 0)})
		out, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return out, out.Transcript.Chat()
	}
	a, chatA := run()
	b, chatB := run()
	if a.Success != b.Success || a.Arch != b.Arch || a.Degraded != b.Degraded {
		t.Errorf("chaotic sessions diverged: %+v vs %+v", a, b)
	}
	if a.Resilience != b.Resilience {
		t.Errorf("resilience counters diverged: %+v vs %+v", a.Resilience, b.Resilience)
	}
	if chatA != chatB {
		t.Error("transcripts diverged under identical seeds")
	}
}

// A cancelled context aborts the session with a wrapped Canceled error
// rather than fabricating an outcome.
func TestChaosSessionCancellation(t *testing.T) {
	s := chaosSession(t, resilience.InjectorConfig{Seed: 1}, &Resilience{Retry: fastRetry(3)})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if out != nil {
		t.Error("cancelled session must not fabricate an outcome")
	}
}

// mustNetlist elaborates a healthy NMC netlist for simulator-level tests.
func mustNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	g1, _ := spec.Group("G-1")
	s := NewSession(llm.NewDomainModel(1, 0), g1, DefaultOptions())
	out, err := s.Run(context.Background())
	if err != nil || out.Netlist == nil {
		t.Fatalf("helper session failed: %v", err)
	}
	return out.Netlist
}
