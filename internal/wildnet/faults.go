package wildnet

import (
	"fmt"
	"sync"

	"goingwild/internal/prand"
)

// FaultConfig layers deterministic network pathologies on top of the base
// loss model. Every fault is a pure per-packet (or per-host, or
// per-window) draw keyed on the world seed, a dedicated facet, the
// addresses and payload involved, the simulation clock, and — for
// retransmissions — an attempt number, so the fault pattern is a pure
// function of (seed, traffic) and byte-identical across runs and
// GOMAXPROCS, exactly like the base world.
//
// The zero value disables the layer entirely: the transport hot path then
// pays one boolean load and nothing else, and the world's behavior is
// bit-for-bit what it was before the layer existed.
type FaultConfig struct {
	// ExtraLoss is an additional independent per-packet loss
	// probability, applied to queries and responses on top of
	// Config.Loss.
	ExtraLoss float64
	// BurstProb is the probability that a given (host, burstWindowSec
	// window) is inside a loss burst; during a burst every packet to or from the
	// host is dropped with probability BurstLoss instead of ExtraLoss.
	// Bursts model correlated congestive loss: retransmissions inside
	// the window redraw their individual fate but stay under the
	// elevated rate.
	BurstProb float64
	// BurstLoss is the per-packet loss probability during a burst.
	BurstLoss float64

	// LatencyBaseMS is a per-hop latency added to every response's
	// delivery delay; LatencyJitterMS is the maximum additional seeded
	// jitter. Delay is ordering metadata: it decides response races and
	// deadline drops.
	LatencyBaseMS   int
	LatencyJitterMS int
	// DeadlineMS drops responses whose total delay exceeds it — the
	// scanner's socket has moved on. Zero means no deadline.
	DeadlineMS int

	// DupProb duplicates a delivered response (the second copy arrives
	// back-to-back, as after a retransmitting middlebox).
	DupProb float64
	// GarbleProb corrupts a few bytes of a response before delivery,
	// modeling broken responders that mangle the answers they build
	// (true in-flight damage dies at the UDP checksum). The transaction
	// ID and echoed question name are preserved — see faultGarble.
	// Receivers must treat the result like any malformed datagram:
	// parse failures vanish, they never panic.
	GarbleProb float64

	// RateLimitShare is the share of resolvers that enforce a per-window
	// query budget. A limiter admits RateLimitPass of its query space
	// per window (a statistical budget: admission is a pure draw per
	// (identity, window, payload, attempt), so no counter state is
	// needed and the draw stays schedule-independent); of the rejected
	// queries, RateLimitRefuse are answered REFUSED and the rest are
	// silently dropped. Trusted infrastructure never rate-limits.
	RateLimitShare  float64
	RateLimitPass   float64
	RateLimitRefuse float64

	// FlapProb is the probability that a given (host, flapWindowMin
	// window) is in a mid-scan outage: the host answers nothing for the
	// window, then returns. Layered on the churn model — the lease does
	// not change, the host is just unreachable.
	FlapProb float64
}

// The correlation windows of the fault draws: a burst lasts
// burstWindowSec simulated seconds, a host outage flapWindowMin
// simulated minutes.
const (
	burstWindowSec = 30
	flapWindowMin  = 10
)

// Enabled reports whether any fault is configured.
func (f FaultConfig) Enabled() bool { return f != (FaultConfig{}) }

// validate rejects out-of-range probabilities at world construction so a
// typo'd profile fails loudly instead of skewing draws.
func (f FaultConfig) validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"ExtraLoss", f.ExtraLoss}, {"BurstProb", f.BurstProb}, {"BurstLoss", f.BurstLoss},
		{"DupProb", f.DupProb}, {"GarbleProb", f.GarbleProb},
		{"RateLimitShare", f.RateLimitShare}, {"RateLimitPass", f.RateLimitPass},
		{"RateLimitRefuse", f.RateLimitRefuse}, {"FlapProb", f.FlapProb},
	}
	for _, p := range probs {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("wildnet: fault %s = %v out of [0, 1]", p.name, p.v)
		}
	}
	if f.LatencyBaseMS < 0 || f.LatencyJitterMS < 0 || f.DeadlineMS < 0 {
		return fmt.Errorf("wildnet: negative fault duration")
	}
	return nil
}

// burstWindow returns the burst correlation window of t.
func burstWindow(t Time) uint64 { return uint64(t.AbsSeconds()) / burstWindowSec }

// flapWindow returns the outage window of t.
func flapWindow(t Time) uint64 { return uint64(t.AbsSeconds()) / 60 / flapWindowMin }

// ChaosProfileNames lists the named chaos profiles, mildest first.
func ChaosProfileNames() []string { return []string{"clean", "lossy", "hostile", "flaky"} }

// ChaosProfile returns one of the named fault profiles the cmds' -chaos
// flag runs the pipeline under:
//
//	clean   — no injected faults; the pre-existing 0.2% base loss only.
//	lossy   — heavy independent loss plus congestive bursts and jitter;
//	          the profile the retransmission machinery must ride over.
//	hostile — everything at once: bursts, deadline-busting latency,
//	          duplication, garbled bytes, and rate-limiting resolvers.
//	flaky   — mid-scan host outages layered on churn, mild loss, and a
//	          small rate-limited population.
func ChaosProfile(name string) (FaultConfig, error) {
	switch name {
	case "clean":
		return FaultConfig{}, nil
	case "lossy":
		return FaultConfig{
			ExtraLoss:       0.02,
			BurstProb:       0.004,
			BurstLoss:       0.85,
			LatencyBaseMS:   20,
			LatencyJitterMS: 60,
		}, nil
	case "hostile":
		return FaultConfig{
			ExtraLoss:       0.01,
			BurstProb:       0.01,
			BurstLoss:       0.90,
			LatencyBaseMS:   40,
			LatencyJitterMS: 120,
			DeadlineMS:      260,
			DupProb:         0.02,
			GarbleProb:      0.03,
			RateLimitShare:  0.10,
			RateLimitPass:   0.50,
			RateLimitRefuse: 0.50,
		}, nil
	case "flaky":
		return FaultConfig{
			ExtraLoss:       0.005,
			LatencyBaseMS:   10,
			LatencyJitterMS: 30,
			FlapProb:        0.03,
			RateLimitShare:  0.05,
			RateLimitPass:   0.70,
			RateLimitRefuse: 0.70,
		}, nil
	default:
		return FaultConfig{}, fmt.Errorf("wildnet: unknown chaos profile %q (have %v)", name, ChaosProfileNames())
	}
}

// MustChaosProfile is ChaosProfile for statically-known names.
// Test support: the tests of other packages arm their profiles with it.
func MustChaosProfile(name string) FaultConfig {
	f, err := ChaosProfile(name)
	if err != nil {
		panic(err)
	}
	return f
}

// faultCtx carries per-packet retransmission context from the transport
// into the fault draws: the query payload's hash and how many identical
// copies preceded it at the current simulated instant. The zero value
// (first transmission, unhashed) is what non-fault paths pass.
type faultCtx struct {
	payloadHash uint64
	attempt     uint64
}

// faultLossProb returns the fault-layer loss probability for a packet
// touching host addr at time t — the burst rate inside a burst window,
// the independent extra rate outside — and whether a burst applied.
func (w *World) faultLossProb(addr uint32, t Time) (p float64, burst bool) {
	f := &w.cfg.Faults
	if f.BurstProb > 0 &&
		w.pre[facetFaultBurst].Add(uint64(addr)).Add(burstWindow(t)).Unit() < f.BurstProb {
		return f.BurstLoss, true
	}
	return f.ExtraLoss, false
}

// faultDrop draws the fault-layer fate of one packet. Unlike the base
// loss draw, the attempt number participates: a retransmission of the
// identical payload gets an independent redraw, which is what makes
// retrying meaningful under a fault profile.
func (w *World) faultDrop(dir uint64, addr uint32, aPort, bPort uint16, ph uint64, t Time, attempt uint64) bool {
	p, burst := w.faultLossProb(addr, t)
	if p <= 0 {
		return false
	}
	if w.pre[facetFaultDrop].Add(dir).Add(uint64(addr)).
		Add(uint64(aPort)<<16|uint64(bPort)).Add(ph).
		Add(uint64(t.AbsHour()*60+t.Minute)).Add(attempt).Unit() >= p {
		return false
	}
	if dir == dirQuery {
		w.fm.dropQuery.Inc()
	} else {
		w.fm.dropResponse.Inc()
	}
	if burst {
		w.fm.dropBurst.Inc()
	}
	return true
}

// faultFlapped reports whether host u is inside a flap outage at t. The
// draw is keyed on the flap window, so a host that vanishes mid-scan
// comes back a window later — an outage, not churn.
func (w *World) faultFlapped(u uint32, t Time) bool {
	f := &w.cfg.Faults
	if f.FlapProb <= 0 {
		return false
	}
	return w.pre[facetFaultFlap].Add(uint64(u)).Add(flapWindow(t)).Unit() < f.FlapProb
}

// faultRateLimited draws the rate-limiter verdict for a resolver query:
// refused answers REFUSED, dropped vanishes, neither means admitted.
// identity is the resolver's lease identity, so a limiter keeps limiting
// for exactly one tenancy.
func (w *World) faultRateLimited(identity uint64, t Time, fc faultCtx) (refused, dropped bool) {
	f := &w.cfg.Faults
	if f.RateLimitShare <= 0 {
		return false, false
	}
	if prand.UnitOf(identity, facetFaultRateCls) >= f.RateLimitShare {
		return false, false
	}
	win := uint64(t.AbsSeconds()) / 60
	if prand.UnitOf(identity, facetFaultRate, win, fc.payloadHash, fc.attempt) < f.RateLimitPass {
		return false, false // admitted under the window budget
	}
	if prand.UnitOf(identity, facetFaultRate, 1, win, fc.payloadHash, fc.attempt) < f.RateLimitRefuse {
		w.fm.rateRefused.Inc()
		return true, false
	}
	w.fm.rateDropped.Inc()
	return false, true
}

// faultAdjustResponses applies latency, jitter, and the delivery deadline
// to a response set in place, returning the (possibly shortened) slice.
// It runs before the transport's delay sort so injected-response races
// are decided on the faulted timeline.
func (w *World) faultAdjustResponses(resps []queryResponse, t Time, fc faultCtx) []queryResponse {
	f := &w.cfg.Faults
	if f.LatencyBaseMS == 0 && f.LatencyJitterMS == 0 && f.DeadlineMS == 0 {
		return resps
	}
	out := resps[:0]
	for i := range resps {
		r := resps[i]
		delta := f.LatencyBaseMS
		if f.LatencyJitterMS > 0 {
			h := w.pre[facetFaultLatency].Add(uint64(r.Src)).Add(fc.payloadHash).
				Add(uint64(i)).Add(uint64(t.AbsHour()*60 + t.Minute)).Add(fc.attempt).Sum()
			delta += prand.IntN(h, f.LatencyJitterMS+1)
		}
		r.DelayMS += delta
		if f.DeadlineMS > 0 && r.DelayMS > f.DeadlineMS {
			continue // arrived after the scanner stopped listening
		}
		out = append(out, r)
	}
	return out
}

// faultGarble corrupts 1–3 bytes of a packed response in place when the
// garble draw fires. The buffer is pooled transport scratch, so in-place
// mutation is free; the receiver sees the corruption like any malformed
// datagram from the real Internet.
//
// The transaction ID (bytes 0–1) and the echoed question name are never
// corrupted. On a real network, in-flight bit damage is caught by the
// UDP checksum and the datagram never reaches the scanner, so a
// garbled-but-delivered response models a broken responder mangling the
// answer it builds — and a responder that answers at all echoes the ID
// and question from the query it is holding. Operationally this
// protection is what keeps scans schedule-independent: those bytes
// carry the probe identifier (txid plus 0x20 casing, §3.3), and a
// corrupted identifier would route the response into another probe's
// accounting concurrently with that probe's own answer, making the
// recorded winner a matter of goroutine timing rather than of the
// seed.
func (w *World) faultGarble(wire []byte, src uint32, rph uint64, t Time, attempt uint64) {
	f := &w.cfg.Faults
	if f.GarbleProb <= 0 || len(wire) == 0 {
		return
	}
	h := w.pre[facetFaultGarble].Add(uint64(src)).Add(rph).
		Add(uint64(t.AbsHour()*60 + t.Minute)).Add(attempt).Sum()
	if prand.Float64(h) >= f.GarbleProb {
		return
	}
	qs, qe := garbleProtectedRange(wire)
	eligible := len(wire) - 2 - (qe - qs)
	if eligible <= 0 {
		return
	}
	w.fm.garbled.Inc()
	n := 1 + prand.IntN(h>>8, 3)
	for k := 0; k < n; k++ {
		pos := 2 + prand.IntN(prand.Hash(h, uint64(k)), eligible)
		if pos >= qs {
			pos += qe - qs
		}
		wire[pos] ^= byte(prand.Hash(h, uint64(k), 0xFF)) | 1
	}
}

// garbleProtectedRange returns the half-open byte range of the first
// question's name (empty when the packet carries no parsable question),
// which faultGarble must leave intact along with the transaction ID.
func garbleProtectedRange(wire []byte) (qs, qe int) {
	const hdr = 12
	if len(wire) < hdr+1 || wire[4] == 0 && wire[5] == 0 {
		return hdr, hdr // no question section
	}
	off := hdr
	for off < len(wire) {
		l := int(wire[off])
		if l == 0 {
			off++
			break
		}
		if l >= 0xC0 { // compression pointer terminates the name
			off += 2
			break
		}
		off += 1 + l
	}
	if off > len(wire) {
		off = len(wire)
	}
	return hdr, off
}

// faultDup reports whether a delivered response is duplicated.
func (w *World) faultDup(src uint32, rph uint64, t Time, attempt uint64) bool {
	f := &w.cfg.Faults
	if f.DupProb <= 0 {
		return false
	}
	if w.pre[facetFaultDup].Add(uint64(src)).Add(rph).
		Add(uint64(t.AbsHour()*60+t.Minute)).Add(attempt).Unit() >= f.DupProb {
		return false
	}
	w.fm.duplicated.Inc()
	return true
}

// CountRespondingAt iterates the whole address space and returns the
// planted ground truth a lossless sweep from vantage v at time t would
// measure: every resolver that is present, visible, not blacklisted by
// skip, and not inside a flap outage. core's TestChaosMatrix compares
// measured sweep totals against this count, so its tolerance covers
// exactly the loss-like faults (base loss, bursts, rate-limit drops,
// garbling) and nothing the world model already decides.
func (w *World) CountRespondingAt(v Vantage, t Time, skip func(u uint32) bool) int {
	n := 0
	for u := uint64(0); u < w.SpaceSize(); u++ {
		a := uint32(u)
		if skip != nil && skip(a) {
			continue
		}
		if !w.ResolverAt(a, t) || !w.VisibleFrom(a, v, t) {
			continue
		}
		if w.faultsOn && w.faultFlapped(a, t) {
			continue
		}
		n++
	}
	return n
}

// attemptShards keeps the retransmission counter's lock striping wide
// enough that parallel sender workers rarely collide.
const attemptShards = 64

// attemptCounter counts identical (destination, payload) transmissions at
// the current simulated instant, feeding the attempt term of the fault
// draws so retransmitting an unchanged probe redraws its fate. The count
// is schedule-independent under the scanner's contract: identical
// payloads are only ever re-sent across settle-barriered retry rounds,
// never concurrently, so the k-th copy observes exactly k-1 predecessors
// no matter how goroutines interleave within a round. SetTime resets the
// counter — a new simulated instant redraws everything anyway.
type attemptCounter struct {
	shards [attemptShards]struct {
		mu sync.Mutex
		m  map[attemptKey]uint64
	}
}

type attemptKey struct {
	addr uint32
	ph   uint64
}

func newAttemptCounter() *attemptCounter {
	c := &attemptCounter{}
	for i := range c.shards {
		c.shards[i].m = make(map[attemptKey]uint64)
	}
	return c
}

// next returns how many identical packets preceded this one and records
// the transmission.
func (c *attemptCounter) next(addr uint32, ph uint64) uint64 {
	s := &c.shards[ph%attemptShards]
	s.mu.Lock()
	k := attemptKey{addr: addr, ph: ph}
	n := s.m[k]
	s.m[k] = n + 1
	s.mu.Unlock()
	return n
}

// reset clears every shard (called from SetTime).
func (c *attemptCounter) reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		clear(s.m)
		s.mu.Unlock()
	}
}
