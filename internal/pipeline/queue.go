package pipeline

import (
	"context"
	"errors"
	"sync"
)

// ErrQueueClosed is returned by Put once the queue has been closed.
var ErrQueueClosed = errors.New("pipeline: queue closed")

// Queue is the serving daemon's backpressure seam (resolvesvc.Service.Run;
// a report applies each epoch inline and has no queue): a bounded FIFO of
// delta batches between a producer (the scanner sweeping epoch after
// epoch) and a consumer (the applier committing each epoch's deltas to a
// store that readers contend for). Put blocks while the queue is full, so
// a producer can run at most `capacity` epochs ahead of the consumer —
// exactly the bound a long-running service needs to keep scan ingest
// from outrunning query-side state.
// Order is preserved, which is what keeps delta application (and hence
// the replayed snapshot) deterministic even though the two sides run
// concurrently.
//
// Shutdown is a first-class state, not a channel close: the item channel
// is never closed, so Close can race Put freely — a Put blocked on a
// full queue unblocks with ErrQueueClosed instead of panicking, and
// items already buffered at Close time still drain through Get.
type Queue[T any] struct {
	ch   chan T
	done chan struct{}
	once sync.Once
}

// NewQueue builds a queue holding at most capacity items (minimum 1).
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue[T]{ch: make(chan T, capacity), done: make(chan struct{})}
}

// Put enqueues v, blocking while the queue is full. It returns ctx.Err()
// if the context dies first and ErrQueueClosed once the queue is closed
// — including a Close that arrives while Put is blocked, which is what
// lets a consumer-side shutdown release a stuck producer.
func (q *Queue[T]) Put(ctx context.Context, v T) error {
	select {
	case <-q.done:
		return ErrQueueClosed
	default:
	}
	select {
	case q.ch <- v:
		return nil
	case <-q.done:
		return ErrQueueClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Get dequeues the next item, blocking while the queue is empty. ok is
// false once the queue is closed and fully drained — items enqueued
// before (or racing) Close are never dropped. A dead context surfaces
// as err with ok false.
func (q *Queue[T]) Get(ctx context.Context) (v T, ok bool, err error) {
	select {
	case v = <-q.ch:
		return v, true, nil
	case <-q.done:
		// Closed: hand out whatever is still buffered, then end the
		// stream.
		select {
		case v = <-q.ch:
			return v, true, nil
		default:
			return v, false, nil
		}
	case <-ctx.Done():
		return v, false, ctx.Err()
	}
}

// Close marks the end of the stream. The consumer drains the remaining
// items, then Get reports ok=false. Close is idempotent and safe to
// call while producers are blocked in Put.
func (q *Queue[T]) Close() {
	q.once.Do(func() { close(q.done) })
}

// Len is the number of items currently buffered — the consumer's lag
// behind the producer in epochs. It is a scheduling-dependent
// observation: export it only as a Timing-class metric.
func (q *Queue[T]) Len() int { return len(q.ch) }
