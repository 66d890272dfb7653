package scanner

import (
	"context"
	"time"
)

// Clock abstracts the scanner's view of time. Rate pacing, settle
// delays, and traffic statistics all go through it, so tests can drive
// the engine with a fake clock and assert on timing-derived numbers
// (QPS, elapsed) deterministically. Production code uses SystemClock.
//
// This is the single seam through which wall-clock time enters the
// package; everything else must take a Clock.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep pauses the calling goroutine for d.
	Sleep(d time.Duration)
}

// ContextSleeper is optionally implemented by clocks whose Sleep can be
// cut short by a context. SystemClock implements it with a timer; fake
// clocks implement it to model deadlines hitting mid-settle.
type ContextSleeper interface {
	// SleepContext sleeps for d or until ctx is done, whichever comes
	// first, returning ctx.Err() when cancellation won.
	SleepContext(ctx context.Context, d time.Duration) error
}

// sleepCtx sleeps d on the clock but returns early once ctx dies. A
// context that can never be cancelled (Done() == nil, e.g. a Background)
// sleeps directly on the clock. Clocks implementing ContextSleeper get the
// cancellation handed to them; for plain clocks the sleep is parked on a
// goroutine so the scan itself returns promptly (the goroutine is
// reclaimed when the clock's Sleep elapses).
func sleepCtx(ctx context.Context, c Clock, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if cs, ok := c.(ContextSleeper); ok {
		return cs.SleepContext(ctx, d)
	}
	if ctx.Done() == nil {
		c.Sleep(d)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	slept := make(chan struct{})
	go func() {
		c.Sleep(d)
		close(slept)
	}()
	select {
	case <-slept:
	case <-ctx.Done():
	}
	return ctx.Err()
}

// SystemClock is the process wall-clock, the default when no Clock is
// injected.
var SystemClock Clock = sysClock{}

type sysClock struct{}

//lint:allow determinism sole wall-clock entry point; every other site injects a Clock
func (sysClock) Now() time.Time { return time.Now() }

//lint:allow sleepcall the system Clock implementation is the one legal raw sleep
func (sysClock) Sleep(d time.Duration) { time.Sleep(d) }

// SleepContext implements ContextSleeper without parking a goroutine.
func (sysClock) SleepContext(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	//lint:allow sleepcall the system Clock's cancellable sleep owns its timer
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
