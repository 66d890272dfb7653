package scanner

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"goingwild/internal/dnswire"
	"goingwild/internal/metrics"
)

// The scan engine. Every scan — the Internet-wide sweep and the list
// scans over an enumerated resolver population (domain, CHAOS, alive,
// snoop) — is rounds of the same thing: Options.Workers senders drain one
// target source, assemble the items into a pooled batch and hand the
// batch to the transport; a settle barrier follows; retry rounds re-probe
// what stayed silent. A retry is a round, nothing more: no delay before
// it, no cap on what it sends, no deadline. A scan differs only in what it
// hands the engine: the source, the probe builder, the miss check, the
// counter its probes are tallied in, and how many retry rounds it wants.

// targetSource yields a round's items in a fixed order: the sweep's
// *lfsr.TargetGenerator yields target addresses (wrapped in a
// replaySource when the sweep has retry rounds), a listSource yields
// indices into the caller's address list.
type targetSource interface {
	// NextBatch fills dst with the round's next items and reports how
	// many; zero ends the round.
	NextBatch(dst []uint32) int
	// Reset rewinds to the start of the round.
	Reset()
}

// listSource walks the indices 0..n-1 of a list in order, cut into rows
// of row items: a pull never crosses a row's end. A plain address list is
// one row (row = n); a domain scan's rows are its names, one item per
// resolver, so its pulls are exactly the ones a scan of each name alone
// would cut.
type listSource struct{ n, row, next uint32 }

// NextBatch implements targetSource.
//
//lint:hotpath per-probe index generation for list scans
func (l *listSource) NextBatch(dst []uint32) int {
	if l.next >= l.n {
		return 0
	}
	end := min(l.n, (l.next/l.row+1)*l.row)
	n := 0
	for n < len(dst) && l.next < end {
		dst[n] = l.next
		l.next++
		n++
	}
	return n
}

// Reset implements targetSource.
func (l *listSource) Reset() { l.next = 0 }

// replaySource is a sweep's source when it has retry rounds. Round 0
// pulls from src and appends each pull's items to list (NextBatch runs
// under scanRun.mu, so the list is in pull order); from round 0's Reset
// on, every round reads list back instead of stepping src again. src
// cuts a pull short only at its end, so pull k of a replay is exactly
// round 0's pull k. The list costs 4 bytes per item, holds no pointers
// and is pooled across sweeps.
type replaySource struct {
	src  targetSource
	list []uint32
	// replay is set by the first Reset; next is the replay position.
	replay bool
	next   int
}

// replayPool recycles replay sources, so a warm sweep records into the
// previous one's array, as probeBatchPool recycles batch arenas.
var replayPool = sync.Pool{New: func() any { return new(replaySource) }}

// newReplaySource wraps src, whose round yields at most size items, in a
// pooled replay source. The list is emptied here, so what a sweep cut
// short in round 0 recorded never reaches the next one.
func newReplaySource(src targetSource, size int) *replaySource {
	r := replayPool.Get().(*replaySource)
	*r = replaySource{src: src, list: slices.Grow(r.list[:0], size)}
	return r
}

// release returns r to the pool once its sweep is over.
func (r *replaySource) release() {
	r.src = nil
	replayPool.Put(r)
}

// NextBatch implements targetSource.
//
//lint:hotpath per-probe target pull of a sweep with retry rounds
func (r *replaySource) NextBatch(dst []uint32) int {
	if !r.replay {
		n := r.src.NextBatch(dst)
		r.list = append(r.list, dst[:n]...)
		return n
	}
	n := copy(dst, r.list[r.next:])
	r.next += n
	return n
}

// Reset implements targetSource: it ends the recording and rewinds the
// replay.
func (r *replaySource) Reset() {
	r.replay = true
	r.next = 0
}

// streamBatch is how many targets a sender worker pulls from the sweep's
// generator per lock acquisition, and the ceiling of any pull: it bounds
// a batch's size, and how far ahead of the others any worker can run.
const streamBatch = 256

// listPull is how many indices a worker pulls from an n-item list (or
// list row) at a time: a thirty-second of it, so a domain-scan row of a
// few thousand resolvers spans many pulls, within [8, streamBatch]. It
// is a function of n alone — pulls cut the batches, so a size derived
// from Workers or GOMAXPROCS would make transport.batch.size depend on
// the machine.
func listPull(n int) int {
	return min(max(n/32, 8), streamBatch)
}

// probeBuild is how a round's items become a batch's probes, in one of
// two forms. A sweep's sets tmpl, the round's census template: its items
// are the destinations, each asked from basePort, and the transport
// builds a probe's bytes from tmpl only where a host can read them. A
// list scan's sets item, which maps item u to its destination and source
// port and appends its payload to arena, returned grown — unless lent is
// set, the payload every probe of the round borrows, and item appends
// nothing.
type probeBuild struct {
	tmpl *dnswire.CensusQuery
	lent []byte
	item func(u uint32, arena []byte) (dst uint32, srcPort uint16, grown []byte)
}

// appendWithID appends the packed query tmpl to arena under transaction
// id — what a probe builder does when a round's queries differ only in
// their ID.
func appendWithID(arena, tmpl []byte, id uint16) []byte {
	off := len(arena)
	arena = append(arena, tmpl...)
	arena[off], arena[off+1] = byte(id>>8), byte(id)
	return arena
}

// scanRun is one scan on the engine: what the caller hands it, and the
// round state the sender workers share under mu (held for one pull).
type scanRun struct {
	src targetSource
	// chunk is how many items one pull takes, at most streamBatch.
	chunk int
	// rounds is how many retry rounds may follow round 0.
	rounds int
	// build returns the round's probe builder. Sweeps salt the payload
	// with the round so a retransmission redraws its loss fate as a new
	// packet; list scans send identical bytes every round and ride the
	// transport's attempt counter instead.
	build func(round int) probeBuild
	// miss reports whether item u is still unanswered. It is consulted
	// only for items of a retry round, each pulled once per round.
	miss func(u uint32) bool
	// ctr tallies the probes dispatched and times the senders' phases
	// (all nil = metrics off).
	ctr senderCounters

	mu sync.Mutex
	// round is 0 for the first pass, 1..rounds for retransmissions.
	round int
	// probed counts round-0 items pulled. Retry rounds never add to it:
	// retries are recovery traffic, not coverage.
	probed uint64
}

// pull fills dst with the round's next items and reports how many; zero
// ends the round. lap runs with r.ctr.pullWaitNs as soon as r.mu is held,
// so the wait for the lock and its hold are timed apart. In a sweep's
// retry round the hold is a copy out of the replay list; a lock-free
// replay pull measured no faster (DESIGN "Retry rounds").
func (r *scanRun) pull(dst []uint32, lap func(*metrics.Counter)) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	lap(r.ctr.pullWaitNs)
	n := r.src.NextBatch(dst)
	if r.round == 0 {
		r.probed += uint64(n)
	}
	return n
}

// pending reports whether the round about to start has anything to send:
// it walks the rewound source (a sweep's replay list) to the first
// still-silent item and rewinds again. A sweep finds one within its
// first pull; a list scan whose probes were all answered ends here,
// before the settle wait another round would cost.
func (r *scanRun) pending() bool {
	defer r.src.Reset()
	bat := probeBatchPool.Get().(*probeBatch)
	defer probeBatchPool.Put(bat)
	for {
		n := r.src.NextBatch(bat.items[:])
		if n == 0 {
			return false
		}
		for _, u := range bat.items[:n] {
			if r.miss(u) {
				return true
			}
		}
	}
}

// run drives r through its rounds. Each round Options.Workers senders
// drain the source, then the settle barrier fixes the answered set the
// next round's miss
// check reads — an item is pulled once per round, so whether it is still
// silent is settled before the round starts, and the probes sent are
// independent of Workers. The Reset after round 0 ends a replaySource's
// recording: a round 0 cut short returns before it, so no retry round
// reads a partial list. The scan ends after its last retry round or,
// before that, at the first round boundary with nothing left silent;
// context death surfaces.
func (s *Scanner) run(ctx context.Context, r *scanRun) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.round > 0 {
			s.m.retryRound.Inc()
		}
		err := s.sendRound(ctx, r)
		if err == nil {
			err = s.settle(ctx)
		}
		if err != nil {
			return err
		}
		r.src.Reset()
		r.round++
		if r.round > r.rounds || !r.pending() {
			return ctx.Err()
		}
	}
}

// sendRound runs one round: Options.Workers senders, each pulling
// r.chunk items at a time from the shared source, keeping the ones the
// round sends (in a retry round, the ones miss still reports),
// assembling them into a pooled batch and dispatching it in a single
// Send call. The set of probes sent is
// exactly the round's item set no matter how batches interleave, so scan
// results stay schedule-independent.
//
// A cancelled context stops each worker at its next pull (at most one
// in-flight batch per worker completes).
//
// With a registry attached, each sender reads the injected Clock at the
// batch's phase boundaries and adds the spans to r.ctr's pull-wait, pull,
// build and send counters; without one it reads no clock at all.
func (s *Scanner) sendRound(ctx context.Context, r *scanRun) error {
	limited := s.rate.interval != 0
	retry := r.round > 0
	build := r.build(r.round)
	timed := r.ctr.pullNs != nil
	sender := func() error {
		bat := probeBatchPool.Get().(*probeBatch)
		defer probeBatchPool.Put(bat)
		var mark time.Time
		if timed {
			mark = s.opts.Clock.Now()
		}
		// lap adds the time since the last boundary to c.
		lap := func(c *metrics.Counter) {
			if timed {
				now := s.opts.Clock.Now()
				c.Add(uint64(max(now.Sub(mark), 0)))
				mark = now
			}
		}
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			n := r.pull(bat.items[:r.chunk], lap)
			lap(r.ctr.pullNs)
			if n == 0 {
				return nil
			}
			// Round 0 keeps every item. A retry round keeps the ones
			// miss still reports, compacted in place, and a rate-limited
			// round waits once per kept item.
			kept := bat.items[:n]
			if retry || limited {
				kept = kept[:0]
				for _, u := range bat.items[:n] {
					if retry && !r.miss(u) {
						continue
					}
					if limited {
						s.rate.wait(ctx)
					}
					kept = append(kept, u)
				}
			}
			b := bat.fill(kept, build)
			lap(r.ctr.buildNs)
			if len(kept) > 0 {
				r.ctr.sent.Add(uint64(len(kept)))
				if retry {
					s.m.retrySpend.Add(uint64(len(kept)))
				}
				s.m.batchSize.Observe(int64(len(kept)))
				//lint:allow errdrop send failures are modeled packet loss
				s.tr.Send(ctx, b)
			}
			lap(r.ctr.sendNs)
		}
	}
	errs := make([]error, s.opts.Workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = sender()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkIncreasing refuses a list that is not strictly increasing: a list
// scan that files a response at its list position finds the position by
// binary search. what names the list in the error.
func checkIncreasing(list []uint32, what string) error {
	for i := 1; i < len(list); i++ {
		if list[i] <= list[i-1] {
			return fmt.Errorf("scanner: %s list not strictly increasing at index %d", what, i)
		}
	}
	return nil
}

// listScan runs the engine over the indices of an n-item list, one row:
// every index is probed once, then up to `rounds` retry rounds cover the
// ones miss still reports (miss may be nil when rounds is 0).
func (s *Scanner) listScan(ctx context.Context, n, rounds int, ctr senderCounters, build probeBuild, miss func(i uint32) bool) error {
	return s.run(ctx, &scanRun{
		src:    &listSource{n: uint32(n), row: uint32(n)},
		chunk:  listPull(n),
		rounds: rounds,
		build:  func(int) probeBuild { return build },
		miss:   miss,
		ctr:    ctr,
	})
}
