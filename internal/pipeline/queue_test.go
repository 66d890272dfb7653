package pipeline

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestQueueCloseUnblocksPut pins the shutdown contract: a producer
// blocked on a full queue must unblock with ErrQueueClosed when the
// consumer closes the queue — no panic, no hang — and the items that
// made it in before the close still drain through Get.
func TestQueueCloseUnblocksPut(t *testing.T) {
	q := NewQueue[int](1)
	ctx := context.Background()
	if err := q.Put(ctx, 1); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- q.Put(ctx, 2) }() // queue full: must block
	select {
	case err := <-blocked:
		t.Fatalf("Put on a full queue returned early: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	q.Close()
	select {
	case err := <-blocked:
		if !errors.Is(err, ErrQueueClosed) {
			t.Fatalf("blocked Put unblocked with %v, want ErrQueueClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked Put did not unblock on Close")
	}
	// The pre-close item survives the shutdown.
	if v, ok, err := q.Get(ctx); !ok || err != nil || v != 1 {
		t.Fatalf("Get after Close = (%d, %v, %v), want the buffered 1", v, ok, err)
	}
	if _, ok, err := q.Get(ctx); ok || err != nil {
		t.Fatalf("drained queue still yields items (ok=%v err=%v)", ok, err)
	}
}

// TestQueueClosePutRace hammers the Put/Close race that used to be a
// send-on-closed-channel panic: producers putting full tilt while the
// consumer closes. Every Put must return nil or ErrQueueClosed, and
// every successfully-Put item must come out of Get exactly once.
func TestQueueClosePutRace(t *testing.T) {
	for round := 0; round < 200; round++ {
		q := NewQueue[int](2)
		ctx := context.Background()
		put := make(chan int, 1)
		go func() {
			n := 0
			for {
				if err := q.Put(ctx, n); err != nil {
					if !errors.Is(err, ErrQueueClosed) {
						t.Errorf("Put: %v", err)
					}
					put <- n
					return
				}
				n++
			}
		}()
		// Consume a few, then close mid-stream.
		for i := 0; i < 3; i++ {
			if v, ok, err := q.Get(ctx); !ok || err != nil || v != i {
				t.Fatalf("Get = (%d, %v, %v), want (%d, true, nil)", v, ok, err, i)
			}
		}
		q.Close()
		accepted := <-put
		// Drain: items 3..accepted-1 in order, except possibly the very
		// last Put, which may have raced the close and lost.
		next := 3
		for {
			v, ok, err := q.Get(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if v != next {
				t.Fatalf("drained %d, want %d", v, next)
			}
			next++
		}
		if next != accepted {
			t.Fatalf("accepted %d items but drained up to %d", accepted, next)
		}
	}
}

func TestQueueBackpressureAndOrder(t *testing.T) {
	q := NewQueue[int](2)
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer q.Close()
		for i := 0; i < 10; i++ {
			if err := q.Put(ctx, i); err != nil {
				t.Errorf("Put(%d): %v", i, err)
				return
			}
		}
	}()
	// The producer can run at most 2 items ahead; drain slowly and check
	// FIFO order survives the blocking handoffs.
	var got []int
	for {
		v, ok, err := q.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, v)
		if lag := q.Len(); lag > 2 {
			t.Fatalf("queue lag %d exceeds capacity 2", lag)
		}
	}
	<-done
	if len(got) != 10 {
		t.Fatalf("drained %d items, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d; order not preserved", i, v)
		}
	}
	// Closed and drained: Get reports the end of the stream.
	if _, ok, err := q.Get(ctx); ok || err != nil {
		t.Errorf("Get after close = ok=%v err=%v, want stream end", ok, err)
	}
	if err := q.Put(ctx, 99); err == nil {
		t.Error("Put after Close accepted")
	}
	q.Close() // idempotent
}

func TestQueueHonorsContext(t *testing.T) {
	q := NewQueue[int](1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := q.Put(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// Queue full: the next Put must unblock on the dead context.
	if err := q.Put(ctx, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("blocked Put err = %v, want deadline", err)
	}
	if _, _, err := q.Get(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := q.Get(ctx); ok || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("blocked Get = ok=%v err=%v, want deadline", ok, err)
	}
}
