package scanner

import (
	"context"
	"time"

	"goingwild/internal/prand"
)

// BackoffConfig parameterizes the adaptive retransmission delay: round k
// waits Base·2^(k-1), capped at Max, plus a deterministic seeded jitter
// of up to Jitter times the capped delay. All waiting goes through the
// scanner's Clock, so fake-clock tests assert on the exact schedule and
// the in-memory transport (which needs no inter-round delay at all) runs
// with the zero value: no backoff, the pre-existing flat-round behavior.
type BackoffConfig struct {
	// Base is the delay before the first retry round; zero disables
	// backoff entirely.
	Base time.Duration
	// Max caps the exponential growth; zero means uncapped.
	Max time.Duration
	// Jitter is the maximum extra delay as a fraction of the capped
	// delay (e.g. 0.5 adds up to +50%). The jitter is a pure function of
	// (Seed, round), so two runs back off identically.
	Jitter float64
	// Seed keys the jitter draws.
	Seed uint64
}

// delay returns the backoff delay before retry round attempt (1-based).
func (b BackoffConfig) delay(attempt int) time.Duration {
	if b.Base <= 0 || attempt <= 0 {
		return 0
	}
	d := b.Base
	for k := 1; k < attempt; k++ {
		d *= 2
		if b.Max > 0 && d >= b.Max {
			d = b.Max
			break
		}
	}
	if b.Jitter > 0 {
		d += time.Duration(float64(d) * b.Jitter * prand.UnitOf(b.Seed, 0xB0FF, uint64(attempt)))
	}
	return d
}

// backoffWait sleeps the backoff delay before retry round attempt on the
// scanner's clock, cut short by context death.
func (s *Scanner) backoffWait(ctx context.Context, attempt int) error {
	d := s.opts.Backoff.delay(attempt)
	if d <= 0 {
		return ctx.Err()
	}
	return sleepCtx(ctx, s.opts.Clock, d)
}

// deadlineGuard tracks a per-stage deadline budget on the scanner's
// clock. The zero StageDeadline never expires and never reads the clock,
// so the default configuration costs nothing.
type deadlineGuard struct {
	clock    Clock
	start    time.Time
	deadline time.Duration
}

func (s *Scanner) newDeadlineGuard() deadlineGuard {
	g := deadlineGuard{deadline: s.opts.StageDeadline}
	if g.deadline > 0 {
		g.clock = s.opts.Clock
		g.start = g.clock.Now()
	}
	return g
}

// expired reports whether the stage's deadline budget is spent.
func (g *deadlineGuard) expired() bool {
	return g.deadline > 0 && g.clock.Now().Sub(g.start) >= g.deadline
}
