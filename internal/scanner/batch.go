package scanner

import (
	"sync"

	"goingwild/internal/wildnet"
)

// Batched probe dispatch: sender workers assemble one pull's worth of
// probes (up to streamBatch) into a pooled arena and hand the whole batch
// to the transport in one SendBatch call. Against the in-memory transport
// that amortizes the clock lock and the fault-layer gate; against the UDP
// gateway it reuses one framing buffer, one datagram per probe. Where the
// batches are cut is pure dispatch: scan results do not depend on it.

// batchSizeBounds buckets the transport.batch.size histogram: powers of
// two up to the streamBatch flush threshold.
var batchSizeBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// probeBatch is a pooled batch-assembly arena: the items of one pull, the
// payload bytes built for them and the probe headers that point into
// those (a sweep's headers carry their round's template instead).
// Payloads append into one buffer and are sliced only in finish, after
// the arena has stopped growing, so reallocation never leaves a probe
// pointing at a stale backing array.
type probeBatch struct {
	items [streamBatch]uint32
	// n is the live probe count; offs and probes stay at full streamBatch
	// length so batch assembly writes by index and never appends.
	n      int
	offs   []int
	buf    []byte
	probes []wildnet.Probe
}

// probeBatchPool recycles assembly arenas across batches and scans; it
// lives at package scope so warm arenas carry from one sweep to the next.
// The probe headers are kept at full length with the constant fields
// (DstPort 53) prefilled; builders only write what varies per probe.
var probeBatchPool = sync.Pool{New: func() any {
	b := &probeBatch{
		offs:   make([]int, streamBatch),
		buf:    make([]byte, 0, streamBatch*64),
		probes: make([]wildnet.Probe, streamBatch),
	}
	for i := range b.probes {
		b.probes[i].DstPort = 53
	}
	return b
}}

// reset clears the arena for the next batch, keeping capacity.
//
//lint:hotpath per-probe batch assembly
func (b *probeBatch) reset() {
	b.n = 0
	b.buf = b.buf[:0]
}

// add builds item u's probe into the next header slot and, through
// build, its payload into the arena. Both payload forms are cleared
// first, so a header the pool hands from one scan to the next never
// keeps the other form from an earlier batch. A pull is at most
// streamBatch items, so the indexed writes stay in bounds.
//
//lint:hotpath per-probe batch assembly
func (b *probeBatch) add(u uint32, build probeBuild) {
	p := &b.probes[b.n]
	p.Payload, p.Template = nil, nil
	b.offs[b.n] = len(b.buf)
	b.buf = build(u, p, b.buf)
	b.n++
}

// finish points every probe whose builder wrote to the arena at its bytes,
// now that the arena is stable; a probe that was lent its payload, or
// carries a template, keeps it. The header slots beyond this batch's
// length keep their stale-but-unreachable previous values.
//
//lint:hotpath per-probe batch assembly
func (b *probeBatch) finish() []wildnet.Probe {
	probes := b.probes[:b.n]
	for i := range probes {
		off, end := b.offs[i], len(b.buf)
		if i+1 < b.n {
			end = b.offs[i+1]
		}
		if off < end {
			probes[i].Payload = b.buf[off:end:end]
		}
	}
	return probes
}
