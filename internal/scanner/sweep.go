package scanner

import (
	"context"
	"sort"
	"strconv"
	"sync"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
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
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	hint := int(uint64(1) << order / 64)
	st := newSweepCollector(domains.ScanBase, hint)
	st.recv = s.m.sweepRecv
	s.tr.SetReceiver(st.receive)
	baseWire, err := dnswire.EncodeNameWire(st.base)
	if err != nil {
		return nil, err
	}

	var probed uint64
	var scanErr error
	if m := s.opts.Shards; m > 1 {
		probed, scanErr = s.sweepSharded(ctx, order, seed, bl, baseWire, st, m)
	} else {
		probed, scanErr = s.sweepSingle(ctx, order, seed, bl, baseWire, st)
	}
	return s.collectSweep(st, probed), scanErr
}

// sweepSingle is the unsharded sweep body: one shared generator drained
// by the worker pool, then the settle barrier and retry rounds.
//
// A census sends exactly one probe per target: retransmitting to the
// silent majority (non-resolvers) would double the scan for a
// fraction-of-a-percent gain. Loss is accounted for by the
// secondary-vantage verification scan instead (§2.2).
//
// Probe construction is the hot path: queries are written label by label
// into pooled buffers without a name or Message allocation, and batched
// into one SendBatch per generator pull when the transport supports it.
// Transports must not retain payloads after Send/SendBatch returns.
func (s *Scanner) sweepSingle(ctx context.Context, order uint, seed uint32, bl *lfsr.Blacklist, baseWire []byte, st *sweepCollector) (uint64, error) {
	gen, err := lfsr.NewTargetGenerator(order, seed, bl)
	if err != nil {
		return 0, err
	}
	var probed uint64
	var scanErr error
	if bs, ok := s.tr.(wildnet.BatchSender); ok {
		probed, scanErr = s.streamAllBatched(ctx, gen, bs, censusBuild(baseWire), nil,
			func(n int) { s.m.sweepSent.Add(uint64(n)) })
	} else {
		probed, scanErr = s.streamAll(ctx, gen, s.censusSend(ctx, baseWire))
	}
	if settleErr := s.settle(ctx); scanErr == nil {
		scanErr = settleErr
	}
	if scanErr == nil && s.opts.SweepRetries > 0 {
		newGen := func() (*lfsr.TargetGenerator, error) { return lfsr.NewTargetGenerator(order, seed, bl) }
		scanErr = s.sweepRetryRounds(ctx, newGen, baseWire, st, s.opts.RetryBudget, false)
	}
	return probed, scanErr
}

// censusBuild returns the batched payload builder for census probes —
// byte-identical to the per-probe path's query, appended into the batch
// arena instead of a scratch buffer.
func censusBuild(baseWire []byte) func(u uint32, buf []byte) []byte {
	return templateBuild(baseWire, 0)
}

// censusSend returns the per-probe census sender for transports without
// batch support.
func (s *Scanner) censusSend(ctx context.Context, baseWire []byte) func(u uint32, scratch *[]byte) {
	return func(u uint32, scratch *[]byte) {
		prefix := cachePrefix(u)
		wire := dnswire.AppendTargetQuery((*scratch)[:0], uint16(u)^uint16(u>>16),
			prefix[:], u, baseWire, dnswire.TypeA, dnswire.ClassIN)
		s.m.sweepSent.Inc()
		//lint:allow errdrop sweep send failures are modeled packet loss
		s.tr.Send(ctx, lfsr.U32ToAddr(u), 53, s.opts.BasePort, wire)
		*scratch = wire[:0]
	}
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

// sweepSharded runs the sweep as m concurrent shard workers. Shard i owns
// every m-th slot of the target permutation (lfsr.ShardedGenerator), with
// its own generator, settle barrier, and retry state; all shards insert
// into the one shared collector, which is safe and order-independent
// because their target sets are disjoint and first-response-wins is
// per-target. Every probe a shard sends is bit-identical to the probe the
// unsharded sweep sends to the same target (same ports, same payload), so
// the modeled per-packet loss draws — and therefore the responder set —
// cannot depend on m.
//
// The retransmission budget is split across shards (shardBudget), which
// is the one place a bound budget can pick different retransmission
// targets than an unsharded run; an unlimited budget (the default) is
// exactly equivalent.
func (s *Scanner) sweepSharded(ctx context.Context, order uint, seed uint32, bl *lfsr.Blacklist, baseWire []byte, st *sweepCollector, m int) (uint64, error) {
	if bl != nil {
		// The shard workers read the blacklist concurrently; the lazy
		// sort-and-merge must happen before they start.
		bl.Freeze()
	}
	bs, batched := s.tr.(wildnet.BatchSender)
	build := censusBuild(baseWire)
	sents := make([]uint64, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen, err := lfsr.ShardedGenerator(order, seed, bl, i, m)
			if err != nil {
				errs[i] = err
				return
			}
			var sent uint64
			if batched {
				sent, err = s.batchWorker(ctx, gen, nil, bs, build, nil,
					func(n int) { s.m.sweepSent.Add(uint64(n)) })
			} else {
				sent, err = s.streamOne(ctx, gen, s.censusSend(ctx, baseWire))
			}
			sents[i] = sent
			if settleErr := s.settle(ctx); err == nil {
				err = settleErr
			}
			if err == nil && s.opts.SweepRetries > 0 {
				newGen := func() (*lfsr.TargetGenerator, error) {
					return lfsr.ShardedGenerator(order, seed, bl, i, m)
				}
				err = s.sweepRetryRounds(ctx, newGen, baseWire, st, shardBudget(s.opts.RetryBudget, i, m), true)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	var probed uint64
	for _, n := range sents {
		probed += n
	}
	s.publishShardGauges(order, seed, bl, st, m, sents)
	for _, e := range errs {
		if e != nil {
			return probed, e
		}
	}
	return probed, nil
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

// publishShardGauges records the per-shard census accounting:
// scan.shard.<i>.sent is the number of census probes shard i dispatched,
// scan.shard.<i>.recv the number of responding targets shard i owns.
// Ownership is recovered after the fact by replaying the raw register
// walk once (slot position mod m, exactly the leapfrog split), so the
// hot receive path stays untouched. Both gauges are deterministic.
func (s *Scanner) publishShardGauges(order uint, seed uint32, bl *lfsr.Blacklist, st *sweepCollector, m int, sents []uint64) {
	if s.opts.Metrics == nil {
		return
	}
	for i, n := range sents {
		s.opts.Metrics.Gauge("scan.shard." + strconv.Itoa(i) + ".sent").Set(int64(n))
	}
	reg, err := lfsr.New(order, seed)
	if err != nil {
		return
	}
	counts := make([]int64, m)
	period := reg.Period()
	for pos := uint64(0); pos < period; pos++ {
		u := reg.Next()
		if bl != nil && bl.ContainsU32(u) {
			continue
		}
		if _, ok := st.responses.Get(u); ok {
			counts[pos%uint64(m)]++
		}
	}
	for i, c := range counts {
		s.opts.Metrics.Gauge("scan.shard." + strconv.Itoa(i) + ".recv").Set(c)
	}
}

// SweepShard probes only shard i of m of the sweep permutation; it is the
// ctx-less wrapper over SweepShardContext.
func (s *Scanner) SweepShard(order uint, seed uint32, bl *lfsr.Blacklist, shard, of int) (*SweepResult, error) {
	return s.SweepShardContext(bgCtx, order, seed, bl, shard, of)
}

// SweepShardContext probes shard `shard` of `of` of a 2^order sweep: the
// targets lfsr.ShardedGenerator(order, seed, bl, shard, of) yields, i.e.
// every of-th slot of the full permutation. Separate processes can each
// run one shard (goingwild -shard i/M) and cmd/wildmerge recombines the
// per-shard results into the unsharded report. The worker pool, retry
// rounds (with this shard's budget share), and batching all apply within
// the shard; the result holds only this shard's probes and responders.
func (s *Scanner) SweepShardContext(ctx context.Context, order uint, seed uint32, bl *lfsr.Blacklist, shard, of int) (*SweepResult, error) {
	if s.tr == nil {
		return nil, ErrNoTransport
	}
	gen, err := lfsr.ShardedGenerator(order, seed, bl, shard, of)
	if err != nil {
		return nil, err
	}
	hint := int(uint64(1) << order / 64 / uint64(of))
	st := newSweepCollector(domains.ScanBase, hint)
	st.recv = s.m.sweepRecv
	s.tr.SetReceiver(st.receive)
	baseWire, err := dnswire.EncodeNameWire(st.base)
	if err != nil {
		return nil, err
	}
	var probed uint64
	var scanErr error
	if bs, ok := s.tr.(wildnet.BatchSender); ok {
		probed, scanErr = s.streamAllBatched(ctx, gen, bs, censusBuild(baseWire), nil,
			func(n int) { s.m.sweepSent.Add(uint64(n)) })
	} else {
		probed, scanErr = s.streamAll(ctx, gen, s.censusSend(ctx, baseWire))
	}
	if settleErr := s.settle(ctx); scanErr == nil {
		scanErr = settleErr
	}
	if scanErr == nil && s.opts.SweepRetries > 0 {
		newGen := func() (*lfsr.TargetGenerator, error) {
			return lfsr.ShardedGenerator(order, seed, bl, shard, of)
		}
		scanErr = s.sweepRetryRounds(ctx, newGen, baseWire, st, shardBudget(s.opts.RetryBudget, shard, of), false)
	}
	return s.collectSweep(st, probed), scanErr
}

// sweepRetryRounds retransmits toward the sweep's non-responders
// (Options.SweepRetries rounds), honoring the backoff schedule, the
// retransmission budget, and the stage deadline. Each round walks the
// generator newGen rebuilds (the full permutation, or one shard of it)
// and re-probes only still-silent targets with an attempt-salted
// anti-caching prefix, so every retransmission is a new packet with a
// fresh loss draw. The answered set at each round's start is fixed by
// the settle barrier — and, under sharding, by shard-disjoint target
// ownership — so the retransmitted target set is schedule-independent;
// Probed stays the census count (retries are recovery traffic, not
// coverage).
//
// budget is this caller's retransmission allowance (the whole
// Options.RetryBudget, or one shard's share); shardWorker marks a caller
// that is already one goroutine of a shard pool, which must not spawn a
// nested worker pool over its private generator.
func (s *Scanner) sweepRetryRounds(ctx context.Context, newGen func() (*lfsr.TargetGenerator, error), baseWire []byte, st *sweepCollector, budget int, shardWorker bool) error {
	guard := s.newDeadlineGuard()
	budgeted := s.opts.RetryBudget > 0
	bs, batched := s.tr.(wildnet.BatchSender)
	miss := func(u uint32) bool {
		_, answered := st.responses.Get(u)
		return !answered
	}
	for attempt := 1; attempt <= s.opts.SweepRetries; attempt++ {
		// Checkpoint between retry rounds.
		if err := ctx.Err(); err != nil {
			return err
		}
		if guard.expired() {
			return nil
		}
		if budgeted && budget <= 0 {
			return nil
		}
		if err := s.backoffWait(ctx, attempt); err != nil {
			return err
		}
		gen, err := newGen()
		if err != nil {
			return err
		}
		s.m.retryRounds.Inc()
		resend := func(u uint32, scratch *[]byte) {
			if !miss(u) {
				return
			}
			prefix := cachePrefixN(u, attempt)
			wire := dnswire.AppendTargetQuery((*scratch)[:0], uint16(u)^uint16(u>>16),
				prefix[:], u, baseWire, dnswire.TypeA, dnswire.ClassIN)
			s.m.sweepSent.Inc()
			s.m.retrySpend.Inc()
			//lint:allow errdrop sweep retransmission failures are modeled packet loss
			s.tr.Send(ctx, lfsr.U32ToAddr(u), 53, s.opts.BasePort, wire)
			*scratch = wire[:0]
		}
		switch {
		case budgeted:
			// A bound budget needs a deterministic target set: materialize
			// the first `budget` misses in permutation order, then send
			// serially (the budgeted path is small by construction).
			targets := make([]uint32, 0, budget)
			for len(targets) < budget {
				u, ok := gen.NextU32()
				if !ok {
					break
				}
				if miss(u) {
					targets = append(targets, u)
				}
			}
			budget -= len(targets)
			scratch := sweepBufPool.Get().(*[]byte)
			cancellable := ctx.Done() != nil
			for i, u := range targets {
				if cancellable && i%streamBatch == 0 && ctx.Err() != nil {
					break
				}
				s.rate.wait(ctx)
				resend(u, scratch)
			}
			sweepBufPool.Put(scratch)
		case batched:
			build := templateBuild(baseWire, attempt)
			onFlush := func(n int) {
				s.m.sweepSent.Add(uint64(n))
				s.m.retrySpend.Add(uint64(n))
			}
			if shardWorker {
				if _, err := s.batchWorker(ctx, gen, nil, bs, build, miss, onFlush); err != nil {
					return err
				}
			} else if _, err := s.streamAllBatched(ctx, gen, bs, build, miss, onFlush); err != nil {
				return err
			}
		case shardWorker:
			if _, err := s.streamOne(ctx, gen, resend); err != nil {
				return err
			}
		default:
			if _, err := s.streamAll(ctx, gen, resend); err != nil {
				return err
			}
		}
		if err := s.settle(ctx); err != nil {
			return err
		}
	}
	return ctx.Err()
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
