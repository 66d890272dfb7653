package scanner

import "goingwild/internal/metrics"

// scanMetrics holds the scanner's pre-resolved metric handles, one pair
// of sent/recv counters per scan entrypoint plus the retry and pacing
// accounting the paper's operators watched live (§2.2, §5). Every field
// is nil when Options.Metrics is unset, and nil handles are no-ops, so
// an uninstrumented scanner pays a single nil check per update and the
// zero-alloc hot paths stay zero-alloc.
//
// All counters except rateStalls and the senders' phase times are
// deterministic: probes sent are a pure function of the target set and
// the (settle-barriered) response pattern, and responses received are a
// pure function of the seeded world — so two runs of the same scan must
// agree on every value. rateStalls counts limiter sleeps and the phase
// counters sum clock readings, which depend on real elapsed time; they
// are registered with the Timing class and asserted only under a fake
// clock.
type scanMetrics struct {
	// One senderCounters per scan kind on the engine.
	sweep, domains, chaos, alive, snoop, any senderCounters

	sweepRecv, domainsRecv *metrics.Counter
	chaosRecv, aliveRecv   *metrics.Counter
	snoopRecv, anyRecv     *metrics.Counter
	probeSent, probeRecv   *metrics.Counter
	// domainsUnattributed counts domain-scan responses dropped before
	// domainsRecv because no tuple can be named for them: a question
	// outside the scan's names, a rewritten port under a question with
	// fewer than nine letters, or a recovered identifier beyond the
	// resolver list. With it the stage reconciles:
	// wildnet.send.answered ≤ domains.recv + domains.unattributed.
	domainsUnattributed *metrics.Counter
	// retryRound counts retry rounds that actually retransmitted;
	// retrySpend counts the retransmissions they sent.
	retryRound *metrics.Counter
	retrySpend *metrics.Counter
	// settleWaits counts settle barriers that waited for in-flight
	// responses (a deterministic call count; the waited duration flows
	// through the Clock).
	settleWaits *metrics.Counter
	// rateStalls counts rate-limiter sleeps (Timing class).
	rateStalls *metrics.Counter
	// batchSize distributes the per-SendBatch probe counts every scan
	// dispatched. The multiset of batch sizes is deterministic (batches
	// are cut by the one source's pull sequence: full pulls — streamBatch
	// for a sweep, listPull of the list length for a list scan — plus one
	// remainder per round, less what a retry round's miss check drops),
	// even though which worker flushed which batch is not.
	batchSize *metrics.Histogram
}

// senderCounters are one scan kind's sender-side series: sent, the probes
// its batches dispatched (scanner.KIND.sent, Deterministic), and the
// nanoseconds its senders spent in each phase of a batch
// (scanner.KIND.{pull_wait,pull,build,send}_ns, Timing). pull_wait is the
// wait for scanRun.mu, which grows with the senders queueing on it, and
// pull its hold; build is assembling the batch, rate-limiter waits
// included; send is the transport's SendBatch.
type senderCounters struct {
	sent                                *metrics.Counter
	pullWaitNs, pullNs, buildNs, sendNs *metrics.Counter
}

func newSenderCounters(r *metrics.Registry, kind string) senderCounters {
	p := "scanner." + kind + "."
	return senderCounters{
		sent:       r.Counter(p + "sent"),
		pullWaitNs: r.TimingCounter(p + "pull_wait_ns"),
		pullNs:     r.TimingCounter(p + "pull_ns"),
		buildNs:    r.TimingCounter(p + "build_ns"),
		sendNs:     r.TimingCounter(p + "send_ns"),
	}
}

// newScanMetrics resolves the handle set against a registry; a nil
// registry yields the all-nil (no-op) set.
func newScanMetrics(r *metrics.Registry) scanMetrics {
	if r == nil {
		return scanMetrics{}
	}
	return scanMetrics{
		sweep:               newSenderCounters(r, "sweep"),
		sweepRecv:           r.Counter("scanner.sweep.recv"),
		domains:             newSenderCounters(r, "domains"),
		domainsRecv:         r.Counter("scanner.domains.recv"),
		domainsUnattributed: r.Counter("scanner.domains.unattributed"),
		chaos:               newSenderCounters(r, "chaos"),
		chaosRecv:           r.Counter("scanner.chaos.recv"),
		alive:               newSenderCounters(r, "alive"),
		aliveRecv:           r.Counter("scanner.alive.recv"),
		snoop:               newSenderCounters(r, "snoop"),
		snoopRecv:           r.Counter("scanner.snoop.recv"),
		any:                 newSenderCounters(r, "any"),
		anyRecv:             r.Counter("scanner.any.recv"),
		probeSent:           r.Counter("scanner.probe.sent"),
		probeRecv:           r.Counter("scanner.probe.recv"),
		retryRound:          r.Counter("scanner.retry.rounds"),
		retrySpend:          r.Counter("scanner.retry.spend"),
		settleWaits:         r.Counter("scanner.settle.waits"),
		rateStalls:          r.TimingCounter("scanner.rate.stalls"),
		batchSize:           r.Histogram("transport.batch.size", batchSizeBounds),
	}
}
