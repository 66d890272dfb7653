package pipeline

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances on Sleep so stage timing is exact.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func okStage(name string, log *[]string, counts ...Count) Stage {
	return Stage{Name: name, Run: func(ctx context.Context) ([]Count, error) {
		*log = append(*log, name)
		return counts, nil
	}}
}

// kinds renders events as "stage:kind" in arrival order.
func kinds(events []StageEvent) string {
	var out []string
	for _, ev := range events {
		out = append(out, ev.Stage+":"+ev.Kind.String())
	}
	return strings.Join(out, ",")
}

func TestRunOrderIsStableAcrossIndependentStages(t *testing.T) {
	// Stages run in slice order, whatever their names.
	var log []string
	var stages []Stage
	for _, name := range []string{"e", "a", "d", "b", "c"} {
		stages = append(stages, okStage(name, &log))
	}
	if err := Run(context.Background(), newFakeClock(), stages, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(log, ""); got != "eadbc" {
		t.Fatalf("order %q, want eadbc", got)
	}
}

func TestStageErrorStopsPipeline(t *testing.T) {
	boom := errors.New("boom")
	var log []string
	var events []StageEvent
	err := Run(context.Background(), newFakeClock(), []Stage{
		okStage("a", &log),
		{Name: "b", Run: func(ctx context.Context) ([]Count, error) { return nil, boom }},
		okStage("c", &log),
	}, func(ev StageEvent) { events = append(events, ev) })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), `stage "b"`) {
		t.Errorf("error %q does not name the failing stage", err)
	}
	if strings.Join(log, ",") != "a" {
		t.Errorf("ran %v, want only a", log)
	}
	if got, want := kinds(events), "a:start,a:done,b:start,b:failed,c:skipped"; got != want {
		t.Errorf("events %s, want %s", got, want)
	}
	if !errors.Is(events[3].Err, boom) {
		t.Errorf("failed event carries %v, want boom", events[3].Err)
	}
}

func TestCancellationCheckpointBetweenStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var log []string
	var events []StageEvent
	err := Run(ctx, newFakeClock(), []Stage{
		{Name: "a", Run: func(ctx context.Context) ([]Count, error) {
			log = append(log, "a")
			cancel() // dies while a is running; b must never start
			return nil, nil
		}},
		okStage("b", &log),
	}, func(ev StageEvent) { events = append(events, ev) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if strings.Join(log, ",") != "a" {
		t.Errorf("ran %v, want only a", log)
	}
	if got, want := kinds(events), "a:start,a:done,b:skipped"; got != want {
		t.Errorf("events %s, want %s", got, want)
	}
}

func TestObserverSeesLifecycleAndTiming(t *testing.T) {
	fc := newFakeClock()
	var events []StageEvent
	err := Run(context.Background(), fc, []Stage{
		{Name: "slow", Run: func(ctx context.Context) ([]Count, error) {
			fc.Sleep(3 * time.Second)
			return []Count{{"tuples", 42}}, nil
		}},
		{Name: "bad", Run: func(ctx context.Context) ([]Count, error) {
			fc.Sleep(time.Second)
			return nil, errors.New("nope")
		}},
	}, func(ev StageEvent) { events = append(events, ev) })
	if err == nil {
		t.Fatal("expected failure")
	}
	if got, want := kinds(events), "slow:start,slow:done,bad:start,bad:failed"; got != want {
		t.Fatalf("events %s, want %s", got, want)
	}
	if events[1].Elapsed != 3*time.Second {
		t.Errorf("StageDone elapsed = %v, want exactly 3s on the fake clock", events[1].Elapsed)
	}
	if len(events[1].Counts) != 1 || events[1].Counts[0].Value != 42 {
		t.Errorf("StageDone counts = %v", events[1].Counts)
	}
	if events[3].Err == nil {
		t.Error("StageFailed event carries no error")
	}
	if events[3].Elapsed != time.Second {
		t.Errorf("StageFailed elapsed = %v, want exactly 1s", events[3].Elapsed)
	}
}

func TestEventKindString(t *testing.T) {
	if StageStart.String() != "start" || StageDone.String() != "done" || StageFailed.String() != "failed" {
		t.Error("EventKind names drifted")
	}
	if StageSkipped.String() != "skipped" {
		t.Error("skip EventKind name drifted")
	}
	if got := EventKind(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown kind = %q", got)
	}
}

// TestStageCancelledMidRunSkipsTheRest: a stage whose context dies while
// it runs fails, every later stage is announced as skipped without
// running, and the cancellation is what Run returns.
func TestStageCancelledMidRunSkipsTheRest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var log []string
	var events []StageEvent
	err := Run(ctx, newFakeClock(), []Stage{
		okStage("a", &log),
		{Name: "b", Run: func(ctx context.Context) ([]Count, error) {
			cancel()
			return nil, ctx.Err()
		}},
		okStage("c", &log),
		okStage("d", &log),
	}, func(ev StageEvent) { events = append(events, ev) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if strings.Join(log, ",") != "a" {
		t.Errorf("ran %v, want only the stage before the cancellation", log)
	}
	if got, want := kinds(events), "a:start,a:done,b:start,b:failed,c:skipped,d:skipped"; got != want {
		t.Errorf("events %s, want %s", got, want)
	}
	if !errors.Is(events[3].Err, context.Canceled) {
		t.Errorf("failed event carries %v, want context.Canceled", events[3].Err)
	}
}

func TestRequiredFailureEmitsSkippedEvents(t *testing.T) {
	var log []string
	var events []StageEvent
	err := Run(context.Background(), newFakeClock(), []Stage{
		{Name: "a", Run: func(ctx context.Context) ([]Count, error) { return nil, errors.New("hard failure") }},
		okStage("b", &log),
		okStage("c", &log),
	}, func(ev StageEvent) { events = append(events, ev) })
	if err == nil {
		t.Fatal("expected failure")
	}
	if got, want := kinds(events), "a:start,a:failed,b:skipped,c:skipped"; got != want {
		t.Errorf("events %s, want %s", got, want)
	}
	if len(log) != 0 {
		t.Errorf("ran %v after the failure", log)
	}
}
