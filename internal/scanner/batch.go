package scanner

import (
	"sync"

	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
	"goingwild/internal/wildnet"
)

// Batched probe dispatch: sender workers assemble one pull's worth of
// probes (up to streamBatch) into a pooled arena and hand the whole batch
// to the transport in one SendBatch call. Against the in-memory transport
// that amortizes the clock lock and the fault-layer gate; against the UDP
// gateway it frames the batch in one buffer. Where the batches are cut is
// pure dispatch: scan results do not depend on it.

// batchSizeBounds buckets the transport.batch.size histogram: powers of
// two up to the streamBatch flush threshold.
var batchSizeBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// probeBatch is a pooled batch-assembly arena: the items of one pull, the
// payload bytes built for them and the probe headers that point into
// those. Payloads append into one buffer and are sliced only in finish,
// after the arena has stopped growing, so reallocation never leaves a
// probe pointing at a stale backing array.
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

// templateBuild returns the sweep's probe builder: it addresses the probe
// to target u from basePort and patches the three per-target fields
// (transaction ID, anti-caching prefix, hex-IP label) into a preassembled
// query, instead of rebuilding the query label by label. The payload is
// byte-for-byte what AppendTargetQuery produces for the same target and
// attempt (TestTemplateBuildMatchesAppend pins this).
func templateBuild(baseWire []byte, attempt int) probeBuild {
	p0 := cachePrefixN(0, attempt)
	tmpl := dnswire.AppendTargetQuery(nil, 0, p0[:], 0, baseWire, dnswire.TypeA, dnswire.ClassIN)
	// Fixed layout: id at [0:2]; the 5-byte prefix label content at
	// [13:18] (after the 12-byte header and its length octet); the
	// 8-hex-digit target label content at [19:27].
	const hexdigits = "0123456789abcdef"
	salt := uint64(attempt) * 0x9E3779B9
	return func(u uint32, p *wildnet.Probe, buf []byte) []byte {
		p.Dst, p.SrcPort = lfsr.U32ToAddr(u), basePort
		off := len(buf)
		buf = append(buf, tmpl...)
		w := buf[off:]
		id := uint16(u) ^ uint16(u>>16)
		w[0], w[1] = byte(id>>8), byte(id)
		// The anti-caching prefix, written directly (w[13] stays 'r'
		// from the template; cachePrefixN is the defining computation).
		v := uint16((uint64(u)*2654435761 + salt) >> 8)
		w[14] = hexdigits[v>>12]
		w[15] = hexdigits[v>>8&0xF]
		w[16] = hexdigits[v>>4&0xF]
		w[17] = hexdigits[v&0xF]
		w[19] = hexdigits[u>>28]
		w[20] = hexdigits[u>>24&0xF]
		w[21] = hexdigits[u>>20&0xF]
		w[22] = hexdigits[u>>16&0xF]
		w[23] = hexdigits[u>>12&0xF]
		w[24] = hexdigits[u>>8&0xF]
		w[25] = hexdigits[u>>4&0xF]
		w[26] = hexdigits[u&0xF]
		return buf
	}
}

// reset clears the arena for the next batch, keeping capacity.
//
//lint:hotpath per-probe batch assembly
func (b *probeBatch) reset() {
	b.n = 0
	b.buf = b.buf[:0]
}

// add builds item u's probe into the next header slot and, through
// build, its payload into the arena. A pull is at most streamBatch items,
// so the indexed writes stay in bounds.
//
//lint:hotpath per-probe batch assembly
func (b *probeBatch) add(u uint32, build probeBuild) {
	b.offs[b.n] = len(b.buf)
	b.buf = build(u, &b.probes[b.n], b.buf)
	b.n++
}

// finish points every probe whose builder wrote to the arena at its bytes,
// now that the arena is stable; a probe that was lent its payload keeps
// it. The header slots beyond this batch's length keep their
// stale-but-unreachable previous values.
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
