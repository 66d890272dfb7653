package wildnet

import "goingwild/internal/metrics"

// faultMetrics holds the fault layer's pre-resolved counter handles, one
// per injected pathology, so a -metrics snapshot shows exactly what a
// profile did to a run. Counting never feeds back into any draw — every
// fault fate stays a pure function of (seed, traffic) — and every
// counter is deterministic: the packets a scan offers the transport are
// schedule-independent, so the fates drawn for them are too. All fields
// are nil (no-op) when Config.Metrics is unset.
//
// The counters count faults injected into exchanges with a live
// endpoint. The transport drops a datagram nothing can answer before the
// fault layer runs (fastpath.go; counted in wildnet.send.rejected
// instead), so the query-side counters — dropQuery, dropBurst, flapped —
// never tally the fate of a probe into empty address space.
//
// faultFlapped itself is deliberately not instrumented: the ground-truth
// walk CountRespondingAt consults the same predicate, and counting there
// would mix bookkeeping reads into traffic totals. Flap suppressions are
// counted at the query-handling site instead.
type faultMetrics struct {
	dropQuery    *metrics.Counter // queries eaten by the fault loss draw
	dropResponse *metrics.Counter // responses eaten by the fault loss draw
	dropBurst    *metrics.Counter // subset of drops that fired inside a loss burst
	garbled      *metrics.Counter // responses corrupted in flight
	duplicated   *metrics.Counter // responses delivered twice
	rateRefused  *metrics.Counter // queries answered REFUSED by a rate limiter
	rateDropped  *metrics.Counter // queries silently eaten by a rate limiter
	flapped      *metrics.Counter // queries suppressed by a host flap outage
}

// newFaultMetrics resolves the handle set; a nil registry yields the
// all-nil (no-op) set.
func newFaultMetrics(r *metrics.Registry) faultMetrics {
	if r == nil {
		return faultMetrics{}
	}
	return faultMetrics{
		dropQuery:    r.Counter("wildnet.fault.drop.query"),
		dropResponse: r.Counter("wildnet.fault.drop.response"),
		dropBurst:    r.Counter("wildnet.fault.drop.burst"),
		garbled:      r.Counter("wildnet.fault.garbled"),
		duplicated:   r.Counter("wildnet.fault.duplicated"),
		rateRefused:  r.Counter("wildnet.fault.ratelimit.refused"),
		rateDropped:  r.Counter("wildnet.fault.ratelimit.dropped"),
		flapped:      r.Counter("wildnet.fault.flap.suppressed"),
	}
}
