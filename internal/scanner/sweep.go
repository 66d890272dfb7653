package scanner

import (
	"context"
	"sort"
	"sync"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
)

// Responder is one host that answered the Internet-wide sweep.
type Responder struct {
	// Addr is the probed target address (recovered from the hex-IP
	// query name, not the packet source, §2.2).
	Addr uint32
	// Source is the address the response actually came from; differing
	// from Addr marks multi-homed hosts and DNS proxies.
	Source uint32
	RCode  dnswire.RCode
	// Answered reports a non-empty A answer section.
	Answered bool
}

// MisSourced reports whether the response came from a different host than
// probed.
func (r Responder) MisSourced() bool { return r.Addr != r.Source }

// SweepResult aggregates one Internet-wide scan.
type SweepResult struct {
	// Probed is the number of targets probed (after blacklisting).
	Probed uint64
	// Responders lists every answering host, by target address.
	Responders []Responder
	// ByRCode counts responders per status code (Figure 1 series).
	ByRCode map[dnswire.RCode]int
}

// Total returns the count of responding hosts.
func (r *SweepResult) Total() int { return len(r.Responders) }

// NOERROR returns the addresses of resolvers that answered NOERROR — the
// population every follow-up experiment starts from. The result is sized
// exactly in one pass before filling, since at the 27M-responder scale of
// §2.2 append-doubling would copy the slice ~25 times.
func (r *SweepResult) NOERROR() []uint32 {
	n := 0
	for _, resp := range r.Responders {
		if resp.RCode == dnswire.RCodeNoError {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]uint32, 0, n)
	for _, resp := range r.Responders {
		if resp.RCode == dnswire.RCodeNoError {
			out = append(out, resp.Addr)
		}
	}
	return out
}

// MisSourcedCount counts responders replying from foreign addresses.
func (r *SweepResult) MisSourcedCount() int {
	n := 0
	for _, resp := range r.Responders {
		if resp.MisSourced() {
			n++
		}
	}
	return n
}

// cachePrefix derives the per-target random label that defeats caching
// (§2.2), written into a fixed-size array so the send path never converts
// through a string.
//
//lint:hotpath per-probe / per-response sweep path
func cachePrefix(u uint32) [5]byte { return cachePrefixN(u, 0) }

// cachePrefixN salts the anti-caching label with the retry attempt:
// attempt 0 is byte-identical to the original census probe, while each
// retransmission round carries a fresh label — a genuinely new packet
// that redraws its per-packet loss fate (the target decode ignores the
// prefix, so attribution is unaffected).
//
//lint:hotpath per-probe / per-response sweep path
func cachePrefixN(u uint32, attempt int) [5]byte {
	v := uint16((uint64(u)*2654435761 + uint64(attempt)*0x9E3779B9) >> 8)
	const hexdigits = "0123456789abcdef"
	return [5]byte{'r', hexdigits[v>>12], hexdigits[v>>8&0xF], hexdigits[v>>4&0xF], hexdigits[v&0xF]}
}

// sweepCollector accumulates sweep responses in a sharded map keyed by
// target address. Its receive method is the hot receiver callback: one
// pooled wire view, no Message, no allocation at steady state.
type sweepCollector struct {
	base      string // canonical scan base the qname must end in
	responses *shardedMap[Responder]
	recv      *metrics.Counter // valid sweep responses seen (nil = metrics off)
}

func newSweepCollector(base string, hint int) *sweepCollector {
	return &sweepCollector{
		base:      dnswire.CanonicalName(base),
		responses: newShardedMap[Responder](hint),
	}
}

// receive handles one response datagram. First response per target wins,
// as with the old single-map collector.
//
//lint:hotpath per-probe / per-response sweep path
func (st *sweepCollector) receive(src netip4, srcPort, dstPort uint16, payload []byte) {
	v := dnswire.GetView()
	defer dnswire.PutView(v)
	if err := v.Reset(payload); err != nil || !v.QR() || v.QDCount() == 0 {
		return
	}
	target, ok := dnswire.DecodeTargetQNameU32(v.QName(), st.base)
	if !ok {
		return
	}
	st.recv.Inc()
	st.responses.InsertOnce(target, Responder{
		Addr:     target,
		Source:   addrU32(src),
		RCode:    v.RCode(),
		Answered: v.HasAnswerA(),
	})
}

// Sweep probes every address of a 2^order space once, in LFSR-permuted
// order, skipping the blacklist. It is the ctx-less wrapper over
// SweepContext.
func (s *Scanner) Sweep(order uint, seed uint32, bl *lfsr.Blacklist) (*SweepResult, error) {
	return s.SweepContext(bgCtx, order, seed, bl)
}

// SweepContext probes every address of a 2^order space once, in
// LFSR-permuted order, skipping the blacklist. Each probe is a DNS A
// query for prefix.hex-ip.scanbase, so responses are attributed to the
// probed target regardless of their source address. Targets stream from
// the generator straight to the sender workers — the permutation is
// never materialized.
//
// Cancellation is honored between send batches and during the settle
// wait. A cancelled sweep returns ctx.Err() together with a consistent
// partial result: every response collected before the abort is present,
// sorted, and counted, so callers that tolerate partial censuses (e.g. a
// checkpointing orchestrator) can keep it.
func (s *Scanner) SweepContext(ctx context.Context, order uint, seed uint32, bl *lfsr.Blacklist) (*SweepResult, error) {
	return s.sweep(ctx, order, seed, bl, 0, 1, nil)
}

// SweepShard probes only shard i of m of the sweep permutation; it is the
// ctx-less wrapper over SweepShardContext.
func (s *Scanner) SweepShard(order uint, seed uint32, bl *lfsr.Blacklist, shard, of int) (*SweepResult, error) {
	return s.SweepShardContext(bgCtx, order, seed, bl, shard, of)
}

// SweepShardContext probes shard `shard` of `of` of a 2^order sweep: the
// targets lfsr.ShardedGenerator(order, seed, bl, shard, of) yields, i.e.
// every of-th slot of the full permutation. Separate processes each run
// one shard (goingwild -shard i/M) and cmd/wildmerge recombines the
// per-shard results into the unsharded report — shards share nothing, as
// ZMap's do. Every probe a shard sends is bit-identical to the probe the
// unsharded sweep sends to the same target, so the modeled per-packet
// loss draws — and therefore the responder set — cannot depend on `of`.
// The one exception is a bound RetryBudget, which is split across shards
// (shardBudget) and can so pick different retransmission targets than an
// unsharded run. The result holds only this shard's probes and
// responders.
func (s *Scanner) SweepShardContext(ctx context.Context, order uint, seed uint32, bl *lfsr.Blacklist, shard, of int) (*SweepResult, error) {
	return s.sweep(ctx, order, seed, bl, shard, of, nil)
}

// shardBudget splits a retransmission budget across m shards: shard i
// gets total/m, plus one of the first total%m remainder units, so the
// shares sum exactly to the budget.
func shardBudget(total, i, m int) int {
	if total <= 0 {
		return 0
	}
	share := total / m
	if i < total%m {
		share++
	}
	return share
}

// sweepRun is what the sender workers of a sweep share: the one target
// generator and the two counters a checkpoint carries. mu is the generator
// lock; workers hold it for one pull per streamBatch targets.
type sweepRun struct {
	mu  sync.Mutex
	gen *lfsr.TargetGenerator
	// round is 0 for the census, 1..SweepRetries for retransmissions.
	round int
	// probed counts census targets pulled. Retry rounds never add to it:
	// retries are recovery traffic, not coverage.
	probed uint64
	// budget is the retransmission allowance left when the scan runs with
	// a bound RetryBudget (bound); miss is the still-silent check a bound
	// budget is spent against.
	bound  bool
	budget int
	miss   func(u uint32) bool
}

// pull fills dst with the round's next targets and reports whether the
// round has more. Under a bound budget a retry round keeps only the first
// `budget` misses in permutation order — decided here, under the generator
// lock, so the retransmitted set does not depend on how many workers pull.
func (r *sweepRun) pull(dst []uint32) (n int, more bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spending := r.round > 0 && r.bound
	if spending && r.budget <= 0 {
		return 0, false
	}
	n = r.gen.NextBatch(dst)
	switch {
	case n == 0:
		return 0, false
	case r.round == 0:
		r.probed += uint64(n)
	case spending:
		k := 0
		for _, u := range dst[:n] {
			if k < r.budget && r.miss(u) {
				dst[k] = u
				k++
			}
		}
		r.budget -= k
		n = k
	}
	return n, true
}

// sweep is the one sweep engine behind SweepContext (full permutation),
// SweepShardContext (one leapfrog shard of it) and SweepResumeContext (a
// ResumeControl attached). It runs rounds 0..SweepRetries; each round
// Options.Workers senders drain one generator, then the settle barrier
// fixes the answered set the next round's miss check reads.
//
// A census sends exactly one probe per target: retransmitting to the
// silent majority (non-resolvers) would double the scan for a
// fraction-of-a-percent gain, and loss is accounted for by the
// secondary-vantage verification scan instead (§2.2). Retry rounds exist
// for the fault profiles: they re-probe only still-silent targets with an
// attempt-salted anti-caching prefix, so every retransmission is a new
// packet with a fresh loss draw, honoring the backoff schedule, the
// retransmission budget and the stage deadline. A target is pulled once
// per round, so whether it is still silent is settled before the round
// starts: the probes sent — and the result — are independent of Workers.
//
// With rc set the senders quiesce at a rendezvous every rc.EveryBatches
// batches and at every round boundary, and a consistent SweepCheckpoint
// goes to rc.Save (see resume.go); with rc nil that hook costs nothing.
func (s *Scanner) sweep(ctx context.Context, order uint, seed uint32, bl *lfsr.Blacklist, shard, of int, rc *ResumeControl) (*SweepResult, error) {
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	if rc != nil && rc.Save == nil {
		rc = nil
	}
	gen, err := lfsr.ShardedGenerator(order, seed, bl, shard, of)
	if err != nil {
		return nil, err
	}
	st := newSweepCollector(domains.ScanBase, int(uint64(1)<<order/64/uint64(of)))
	st.recv = s.m.sweepRecv
	s.tr.SetReceiver(st.receive)
	baseWire, err := dnswire.EncodeNameWire(st.base)
	if err != nil {
		return nil, err
	}
	run := &sweepRun{
		gen:    gen,
		bound:  s.opts.RetryBudget > 0,
		budget: shardBudget(s.opts.RetryBudget, shard, of),
		miss: func(u uint32) bool {
			_, answered := st.responses.Get(u)
			return !answered
		},
	}
	if rc != nil && rc.Prev != nil {
		done, err := s.restoreSweep(run, st, rc.Prev, bl)
		if err != nil {
			return nil, err
		}
		if done {
			return s.collectSweep(st, run.probed), nil
		}
	}

	guard := s.newDeadlineGuard()
	for run.round <= s.opts.SweepRetries {
		if err := ctx.Err(); err != nil {
			return s.collectSweep(st, run.probed), err
		}
		if run.round > 0 {
			if guard.expired() || (run.bound && run.budget <= 0) {
				break
			}
			if err := s.backoffWait(ctx, run.round); err != nil {
				return s.collectSweep(st, run.probed), err
			}
			s.m.retryRounds.Inc()
		}
		var rz *rendezvous
		if rc != nil {
			rz = newRendezvous(s.opts.Workers, rc.EveryBatches, func() error {
				return rc.Save(s.checkpointSweep(run, st))
			})
		}
		err := s.sendRound(ctx, run, templateBuild(baseWire, run.round), rz)
		if err == nil {
			err = s.settle(ctx)
		}
		if err != nil {
			return s.collectSweep(st, run.probed), err
		}
		if run.round == 0 {
			// The stage deadline bounds the retry phase, not the census.
			guard = s.newDeadlineGuard()
		}
		run.gen.Reset()
		run.round++
		if rc != nil {
			// Round boundary: force a checkpoint so a crash during the next
			// round's backoff (or after the last round) resumes cleanly.
			ck := s.checkpointSweep(run, st)
			ck.Done = run.round > s.opts.SweepRetries
			if err := rc.Save(ck); err != nil {
				return s.collectSweep(st, run.probed), err
			}
		}
	}
	return s.collectSweep(st, run.probed), ctx.Err()
}

// sendRound runs one round of the sweep: Options.Workers senders, each
// pulling streamBatch targets at a time from the shared generator,
// assembling the still-wanted ones into a pooled arena and dispatching
// the batch in a single SendBatch call. The set of probes sent is exactly
// the round's target set no matter how batches interleave, so scan
// results stay schedule-independent.
//
// A cancelled context stops each worker at its next batch boundary (at
// most one in-flight batch of streamBatch targets per worker completes).
// Cancellation is polled via ctx.Err() once per batch — 1/256th of the
// probe rate, synchronous with cancel() — and skipped entirely for the
// non-cancellable contexts the ctx-less wrappers pass. rz, when set, is
// the checkpoint rendezvous every worker visits after each batch; a nil
// rz adds no lock and no allocation to the batch.
func (s *Scanner) sendRound(ctx context.Context, run *sweepRun, build func(u uint32, buf []byte) []byte, rz *rendezvous) error {
	cancellable := ctx.Done() != nil
	limited := s.rate.interval != 0
	retry := run.round > 0
	// A bound budget has already applied the miss check in pull.
	var accept func(u uint32) bool
	if retry && !run.bound {
		accept = run.miss
	}
	sender := func() error {
		if rz != nil {
			defer rz.finish()
		}
		bat := probeBatchPool.Get().(*probeBatch)
		defer probeBatchPool.Put(bat)
		var targets [streamBatch]uint32
		for {
			if cancellable && ctx.Err() != nil {
				return ctx.Err()
			}
			n, more := run.pull(targets[:])
			if !more {
				return nil
			}
			bat.reset()
			for _, u := range targets[:n] {
				if accept != nil && !accept(u) {
					continue
				}
				if limited {
					s.rate.wait(ctx)
				}
				bat.add(u, build)
			}
			if bat.n > 0 {
				probes := bat.finish(s.opts.BasePort)
				s.m.sweepSent.Add(uint64(len(probes)))
				if retry {
					s.m.retrySpend.Add(uint64(len(probes)))
				}
				s.m.batchSize.Observe(int64(len(probes)))
				// Send failures are modeled packet loss.
				s.batch.SendBatch(ctx, probes)
			}
			if rz != nil {
				if err := rz.pause(); err != nil {
					return err
				}
			}
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

// collectSweep freezes the collector into the sorted result.
func (s *Scanner) collectSweep(st *sweepCollector, probed uint64) *SweepResult {
	res := &SweepResult{
		Probed:     probed,
		ByRCode:    make(map[dnswire.RCode]int),
		Responders: make([]Responder, 0, st.responses.Len()),
	}
	st.responses.Collect(func(_ uint32, r Responder) {
		res.Responders = append(res.Responders, r)
		res.ByRCode[r.RCode]++
	})
	// Shard maps iterate in unspecified order; sort so the responder list
	// (and everything derived from it, e.g. NOERROR ordering) is
	// reproducible.
	sort.Slice(res.Responders, func(i, j int) bool {
		return res.Responders[i].Addr < res.Responders[j].Addr
	})
	return res
}

// Probe sends a single query toward one resolver; it is the ctx-less
// wrapper over ProbeContext.
func (s *Scanner) Probe(addr uint32, name string, typ dnswire.Type, class dnswire.Class) []*dnswire.Message {
	out, _ := s.ProbeContext(bgCtx, addr, name, typ, class)
	return out
}

// ProbeContext sends a single query toward one resolver and returns all
// responses that arrive before the settle deadline (the GFW study needs
// to observe response races, §4.2). A dead context cuts the settle wait
// short and surfaces as ctx.Err() alongside whatever arrived.
func (s *Scanner) ProbeContext(ctx context.Context, addr uint32, name string, typ dnswire.Type, class dnswire.Class) ([]*dnswire.Message, error) {
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	var mu sync.Mutex
	var out []*dnswire.Message
	s.tr.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		if m, err := dnswire.Unpack(payload); err == nil && m.Header.QR {
			s.m.probeRecv.Inc()
			mu.Lock()
			out = append(out, m)
			mu.Unlock()
		}
	})
	q := getQuery(0x5157, name, typ, class)
	s.m.probeSent.Inc()
	//lint:allow errdrop single-probe send failures are modeled packet loss
	s.tr.Send(ctx, lfsr.U32ToAddr(addr), 53, s.opts.BasePort, *q)
	queryBufs.Put(q)
	err := s.settle(ctx)
	mu.Lock()
	defer mu.Unlock()
	return out, err
}
