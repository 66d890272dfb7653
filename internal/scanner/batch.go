package scanner

import (
	"sync"

	"goingwild/internal/wildnet"
)

// Batched probe dispatch: sender workers assemble one pull's worth of
// probes (up to streamBatch) into a pooled wildnet.Batch and hand the
// whole batch to the transport in one Send call. Against the in-memory
// transport that amortizes the clock lock and the fault-layer gate;
// against the UDP gateway it reuses one framing buffer, one datagram per
// probe. Where the batches are cut is pure dispatch: scan results do not
// depend on it.

// batchSizeBounds buckets the transport.batch.size histogram: powers of
// two up to the streamBatch flush threshold.
var batchSizeBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// probeBatch is a pooled batch-assembly arena: the items of one pull and
// the columns of the Batch built from them. A sweep's batch is its kept
// items themselves under the round's template; a list scan's fills the
// destination, source-port and payload-end columns per item, its
// payloads appended to one arena and cut by offset, so the arena may
// grow mid-batch.
type probeBatch struct {
	items [streamBatch]uint32
	dst   [streamBatch]uint32
	ports [streamBatch]uint16
	ends  [streamBatch]int
	arena []byte
	b     wildnet.Batch
}

// probeBatchPool recycles assembly arenas across batches and scans; it
// lives at package scope so warm arenas carry from one sweep to the next.
var probeBatchPool = sync.Pool{New: func() any {
	return &probeBatch{arena: make([]byte, 0, streamBatch*64)}
}}

// fill builds the batch for kept through build. A sweep's batch is kept
// itself under build.tmpl; a list scan's maps each item through
// build.item. A pull is at most streamBatch items, so the indexed
// writes stay in bounds.
//
//lint:hotpath per-probe batch assembly of the list scans
func (b *probeBatch) fill(kept []uint32, build probeBuild) *wildnet.Batch {
	if build.tmpl != nil {
		b.b = wildnet.Batch{Dst: kept, DstPort: 53, SrcPort: basePort, Template: build.tmpl}
		return &b.b
	}
	b.arena = b.arena[:0]
	for i, u := range kept {
		b.dst[i], b.ports[i], b.arena = build.item(u, b.arena)
		b.ends[i] = len(b.arena)
	}
	n := len(kept)
	b.b = wildnet.Batch{Dst: b.dst[:n], DstPort: 53, SrcPorts: b.ports[:n], Arena: b.arena, Ends: b.ends[:n]}
	if build.lent != nil {
		b.b.Arena, b.b.Ends, b.b.Payload = nil, nil, build.lent
	}
	return &b.b
}
