package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// tickClock is a fake Clock whose Sleep blocks until the test releases
// one tick, so the reporter goroutine runs in lock-step with the test.
type tickClock struct {
	ticks chan struct{}
	now   time.Time
}

func (c *tickClock) Now() time.Time { return c.now }

func (c *tickClock) Sleep(time.Duration) {
	if _, ok := <-c.ticks; !ok {
		// Channel closed: the test is done; park forever so a stopped
		// reporter never spins.
		select {}
	}
}

// syncBuffer is a goroutine-safe string sink.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (s *syncBuffer) lines() int {
	return strings.Count(s.String(), "\n")
}

func TestStartProgressWritesAndStops(t *testing.T) {
	clock := &tickClock{ticks: make(chan struct{})}
	var out syncBuffer
	r := New()
	r.Counter("scanner.sweep.sent").Add(40)
	r.Counter("scanner.sweep.recv").Add(10)
	r.Counter("wildnet.fault.garbled").Add(3)
	r.Counter("pipeline.stage.done").Add(2)
	r.Counter("pipeline.stage.skipped").Add(1)

	stop := StartProgress(&out, clock, time.Second, r)
	clock.ticks <- struct{}{} // release one interval
	waitFor(t, func() bool { return out.lines() == 1 })

	want := "progress: sent=40 recv=10 (25.0%) faults=3 stages=2/3\n"
	if got := out.String(); got != want {
		t.Errorf("progress line = %q, want %q", got, want)
	}

	stop()
	// A tick arriving after stop must not produce another line.
	clock.ticks <- struct{}{}
	time.Sleep(10 * time.Millisecond)
	if out.lines() != 1 {
		t.Errorf("reporter wrote after stop: %q", out.String())
	}
}

// TestProgressLineEmptySnapshot: the reporter must not divide by zero
// before the first probe.
func TestProgressLineEmptySnapshot(t *testing.T) {
	got := ProgressLine(Snapshot{})
	want := "progress: sent=0 recv=0 (0.0%) faults=0 stages=0/0"
	if got != want {
		t.Errorf("ProgressLine(empty) = %q, want %q", got, want)
	}
}

// waitFor polls cond with a real-time bound; used only to synchronize
// with the reporter goroutine, never to assert timing.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
