package scanner

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sync/atomic"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
	"goingwild/internal/wildnet"
)

// inspectTransport hands every datagram to check inside SendBatch — while the
// scanner still lends it the payload — and answers nothing.
type inspectTransport struct {
	check func(dst uint32, srcPort uint16, payload []byte)
}

func (tr *inspectTransport) SendBatch(_ context.Context, batch []wildnet.Probe) (int, error) {
	for _, p := range batch {
		tr.check(lfsr.AddrToU32(p.Dst), p.SrcPort, p.Payload)
	}
	return len(batch), nil
}

func (tr *inspectTransport) SetReceiver(func(src netip.Addr, srcPort, dstPort uint16, payload []byte)) {
}

func (tr *inspectTransport) Close() error { return nil }

// TestDomainScanQueriesMatchMessageForm: the domain scan builds each probe
// on the wire, in a pooled buffer, and re-cases the name where it lies.
// What reaches the transport must be byte for byte the query the Message
// encoder packs from the 0x20-cased string — the form the benchmark's
// traced replay still sends — on the source port that carries the same
// nine bits. Four workers share the buffer pool, so a buffer handed back
// too early would surface here as a torn payload. The names share one
// pass, so the question (case-folded) names the probe's row.
func TestDomainScanQueriesMatchMessageForm(t *testing.T) {
	const addrBase = 0x0B000000
	// Past 2^16 resolvers the port index, and with it the casing, moves.
	resolvers := make([]uint32, 0x10000+500)
	for i := range resolvers {
		resolvers[i] = addrBase + uint32(i)
	}
	// A name with fewer than nine letters takes fewer bits.
	names := []string{"qq.com", "thepiratebay.se", "update.adobe.example"}
	var sends [3]atomic.Int64
	tr := &inspectTransport{}
	tr.check = func(dst uint32, srcPort uint16, payload []byte) {
		v := dnswire.GetView()
		defer dnswire.PutView(v)
		if err := v.Reset(payload); err != nil {
			t.Error(err)
			return
		}
		ni := slices.IndexFunc(names, v.QNameIs)
		if ni < 0 {
			t.Errorf("probe %x asks for no scanned name", payload)
			return
		}
		sends[ni].Add(1)
		name := names[ni]
		txid, portIdx := dnswire.SplitProbeID(dnswire.ProbeID(dst - addrBase))
		qname, _ := dnswire.Encode0x20(name, uint32(portIdx), 9)
		want, err := dnswire.NewQuery(txid, qname, dnswire.TypeA, dnswire.ClassIN).PackBytes()
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(payload, want) || srcPort != basePort+portIdx {
			t.Errorf("resolver %d, %s: sent %x from port %d, want %x from port %d",
				dst-addrBase, name, payload, srcPort, want, basePort+portIdx)
		}
	}
	sc := New(tr, Options{Workers: 4, SettleDelay: NoSettle})
	if _, err := sc.ScanDomainsContext(context.Background(), resolvers, names); err != nil {
		t.Fatal(err)
	}
	// Nothing answers, so every tuple is probed twice: its first pass
	// and the retry round.
	for ni, name := range names {
		if got, want := sends[ni].Load(), int64(2*len(resolvers)); got != want {
			t.Errorf("%s: %d probes sent, want %d", name, got, want)
		}
	}

	// A name that cannot be encoded, or one that repeats another under
	// DNS case folding, fails the scan before any probe leaves.
	tr.check = func(uint32, uint16, []byte) { t.Error("a refused domain scan sent a probe") }
	for _, bad := range [][]string{{"qq.com", "a..b"}, {"qq.com", "QQ.com."}} {
		if _, err := sc.ScanDomainsContext(context.Background(), resolvers, bad); err == nil {
			t.Errorf("domain scan of %q returned no error", bad)
		}
	}
}

// TestSnoopRoundSendsOnePayload: a snoop round's query is the same for
// every resolver, so the round packs it once and lends the transport that
// one payload — RD clear, the round's sequence number as the ID — for
// every send.
func TestSnoopRoundSendsOnePayload(t *testing.T) {
	q := dnswire.NewQuery(41, "org", dnswire.TypeNS, dnswire.ClassIN)
	q.Header.RD = false
	want, err := q.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	var first atomic.Pointer[byte]
	var sends atomic.Int64
	tr := &inspectTransport{check: func(_ uint32, _ uint16, payload []byte) {
		sends.Add(1)
		if !bytes.Equal(payload, want) {
			t.Errorf("snoop probe %x, want %x", payload, want)
		}
		if !first.CompareAndSwap(nil, &payload[0]) && first.Load() != &payload[0] {
			t.Error("snoop round packed its query more than once")
		}
	}}
	sc := New(tr, Options{Workers: 4, SettleDelay: NoSettle})
	resolvers := make([]uint32, 3000)
	for i := range resolvers {
		resolvers[i] = 0x0C000000 + uint32(i)
	}
	if _, err := sc.SnoopRoundContext(context.Background(), resolvers, "org", 41); err != nil {
		t.Fatal(err)
	}
	if sends.Load() != int64(len(resolvers)) {
		t.Fatalf("%d probes sent, want %d", sends.Load(), len(resolvers))
	}
	if _, err := sc.SnoopRoundContext(context.Background(), resolvers, "a..b", 41); err == nil {
		t.Error("snoop round for an unencodable tld returned no error")
	}
}

// TestAliveAndChaosQueriesMatchMessageForm: the alive and CHAOS builders
// assemble their probes from precomputed wire pieces in the batch arena.
// What reaches the transport must be byte for byte the query the Message
// encoder packs from the name's string form, on the base source port —
// packed bytes key the world's loss draws, so a moved byte moves reports.
func TestAliveAndChaosQueriesMatchMessageForm(t *testing.T) {
	const addrBase = 0x0B000000
	var want func(dst uint32) *dnswire.Message
	tr := &inspectTransport{check: func(dst uint32, srcPort uint16, payload []byte) {
		wire, err := want(dst).PackBytes()
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(payload, wire) || srcPort != basePort {
			t.Errorf("target %#x: sent %x from port %d, want %x from port %d", dst, payload, srcPort, wire, basePort)
		}
	}}
	sc := New(tr, Options{Workers: 4, SettleDelay: NoSettle})

	// The alive prefix is "c" plus the low twelve bits in hex, unpadded.
	want = func(u uint32) *dnswire.Message {
		name := dnswire.EncodeTargetQName(fmt.Sprintf("c%x", u&0xFFF), lfsr.U32ToAddr(u), domains.ScanBase)
		return dnswire.NewQuery(uint16(u), name, dnswire.TypeA, dnswire.ClassIN)
	}
	alive := []uint32{addrBase, addrBase + 0xF, addrBase + 0x10, addrBase + 0x123, addrBase + 0xFFF, 0xC0FFEE00, 0xFFFFFFFF}
	if _, err := sc.ProbeAliveContext(context.Background(), alive); err != nil {
		t.Fatal(err)
	}

	// Past 2^16 resolvers the CHAOS scan starts a second transaction-ID
	// chunk; the two passes are barriered, so the send count names the pass.
	resolvers := make([]uint32, 0x10000+300)
	for i := range resolvers {
		resolvers[i] = addrBase + uint32(i)
	}
	var sends atomic.Int64
	want = func(dst uint32) *dnswire.Message {
		qname := []string{"version.bind", "version.server"}[int(sends.Add(1)-1)/len(resolvers)]
		return dnswire.NewQuery(uint16(dst-addrBase), qname, dnswire.TypeTXT, dnswire.ClassCH)
	}
	if _, err := sc.ScanChaosContext(context.Background(), resolvers); err != nil {
		t.Fatal(err)
	}
	if got, want := sends.Load(), int64(2*len(resolvers)); got != want {
		t.Fatalf("%d CHAOS probes sent, want %d", got, want)
	}
}
