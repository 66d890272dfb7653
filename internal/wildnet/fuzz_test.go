package wildnet

import (
	"bytes"
	"context"
	"net/netip"
	"sync"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
)

// The fuzz world is built once per process (fuzz workers are separate
// processes, so each pays the cost once). It runs the hostile chaos
// profile so fuzzed packets exercise the fault layer's drop, garble,
// duplicate, rate-limit, and flap paths in addition to the DNS handler.
var (
	fuzzWorldOnce sync.Once
	fuzzWorld     *World
	fuzzWorldErr  error
)

func hostileFuzzWorld() (*World, error) {
	fuzzWorldOnce.Do(func() {
		cfg := DefaultConfig(14)
		faults, err := ChaosProfile("hostile")
		if err != nil {
			fuzzWorldErr = err
			return
		}
		cfg.Faults = faults
		fuzzWorld, fuzzWorldErr = NewWorld(cfg)
	})
	return fuzzWorld, fuzzWorldErr
}

// FuzzHandleDNS feeds arbitrary datagrams through the in-memory
// transport — the same entry point every simulated scan uses — against a
// world with all fault classes armed. Nothing here may panic: malformed
// packets must vanish like they would on the wire, and every response
// that does come back must carry a sane tunnel source.
func FuzzHandleDNS(f *testing.F) {
	q := dnswire.NewQuery(7, "r1.c0a80101.scan.dnsstudy.example.edu", dnswire.TypeA, dnswire.ClassIN)
	wire, _ := q.PackBytes()
	f.Add(wire, uint32(1), uint16(53), uint16(40000), uint8(0))
	gt := dnswire.NewQuery(99, domains.GroundTruth, dnswire.TypeA, dnswire.ClassIN)
	gtWire, _ := gt.PackBytes()
	f.Add(gtWire, uint32(12345), uint16(53), uint16(41000), uint8(3))
	f.Add([]byte{0, 1, 0x80, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3, 'f', 'o', 'o', 0, 0, 1, 0, 1},
		uint32(7), uint16(53), uint16(42000), uint8(1))
	f.Add([]byte{}, uint32(0), uint16(0), uint16(0), uint8(0))
	f.Add([]byte{1, 2, 3}, uint32(0xFFFFFFFF), uint16(5353), uint16(1), uint8(7))
	f.Fuzz(func(t *testing.T, payload []byte, target uint32, dstPort, srcPort uint16, week uint8) {
		w, err := hostileFuzzWorld()
		if err != nil {
			t.Skipf("fuzz world: %v", err)
		}
		tr := NewMemTransport(w, VantagePrimary)
		defer tr.Close()
		tr.SetTime(At(int(week % 8)))
		tr.SetReceiver(func(src netip.Addr, srcPort, dstPort uint16, resp []byte) {
			if !src.Is4() {
				t.Errorf("response from non-IPv4 source %v", src)
			}
			// Responses may be garbled by the fault layer; they must
			// still never panic the pooled view decoder.
			v := dnswire.GetView()
			defer dnswire.PutView(v)
			if err := v.Reset(resp); err == nil {
				_ = v.RCode()
				_ = v.QName()
				_ = v.HasAnswerA()
			}
		})
		dst := lfsr.U32ToAddr(target)
		if err := sendOne(context.Background(), tr, dst, dstPort, srcPort, payload); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
	})
}

// The answer-wire fuzz world is clean and lossless, so every response the
// handler writes is delivered as written.
var (
	answerWorldOnce sync.Once
	answerWorld     *World
	answerWorldErr  error
	answerResolvers []uint32
)

func cleanFuzzWorld() (*World, []uint32, error) {
	answerWorldOnce.Do(func() {
		cfg := DefaultConfig(14)
		cfg.Loss = 0
		if answerWorld, answerWorldErr = NewWorld(cfg); answerWorldErr != nil {
			return
		}
		for week := 0; week < 8; week++ {
			for u := uint32(0); u < uint32(answerWorld.SpaceSize()); u++ {
				if answerWorld.ResolverAt(u, At(week)) {
					answerResolvers = append(answerResolvers, u)
				}
			}
		}
	})
	return answerWorld, answerResolvers, answerWorldErr
}

// FuzzAnswerWire holds the wire responder to the tree encoder on
// arbitrary questions: whatever a query draws — from a resolver of any
// class, the trusted infrastructure, or the injector — unpacks, re-packs
// through PackInto to the very bytes delivered (so the builder made the
// encoder's compression choices), and echoes the query's ID and question
// octet for octet.
func FuzzAnswerWire(f *testing.F) {
	f.Add("chase.com", uint16(dnswire.TypeA), uint16(dnswire.ClassIN), true, uint16(7), uint32(0), uint8(0))
	f.Add("WikiLeaks.ORG", uint16(dnswire.TypeA), uint16(dnswire.ClassIN), true, uint16(8), uint32(2), uint8(3))
	f.Add("com", uint16(dnswire.TypeNS), uint16(dnswire.ClassIN), false, uint16(0), uint32(4), uint8(1))
	f.Add("version.bind", uint16(dnswire.TypeTXT), uint16(dnswire.ClassCH), true, uint16(9), uint32(6), uint8(0))
	f.Add("chase.com", uint16(dnswire.TypeANY), uint16(dnswire.ClassIN), true, uint16(10), uint32(8), uint8(5))
	f.Add(domains.GroundTruth, uint16(dnswire.TypeDNSKEY), uint16(dnswire.ClassIN), true, uint16(11), uint32(10), uint8(2))
	f.Add("4.3.2.1.in-addr.arpa", uint16(dnswire.TypePTR), uint16(dnswire.ClassIN), true, uint16(12), uint32(12), uint8(7))
	f.Add("", uint16(dnswire.TypeA), uint16(dnswire.ClassIN), true, uint16(13), uint32(14), uint8(0))
	f.Add("facebook.com", uint16(dnswire.TypeA), uint16(dnswire.ClassIN), true, uint16(14), uint32(0x7001), uint8(4))
	f.Add("r1.c0a80101."+domains.ScanBase, uint16(dnswire.TypeA), uint16(dnswire.ClassIN), true, uint16(15), uint32(0x7FFF9), uint8(0))
	f.Fuzz(func(t *testing.T, name string, qtype, qclass uint16, rd bool, id uint16, dst uint32, week uint8) {
		w, resolvers, err := cleanFuzzWorld()
		if err != nil {
			t.Skipf("fuzz world: %v", err)
		}
		query, err := dnswire.AppendQuery(nil, id, rd, name, dnswire.Type(qtype), dnswire.Class(qclass))
		if err != nil {
			t.Skip("name does not encode")
		}
		// Even selectors pick a known resolver address, odd ones any
		// address (infrastructure and empty space included).
		u := dst >> 1
		if dst&1 == 0 {
			u = resolvers[int(dst>>1)%len(resolvers)]
		}
		tr := NewMemTransport(w, VantagePrimary)
		defer tr.Close()
		tr.SetTime(At(int(week % 8)))
		var cmp dnswire.Compressor
		tr.SetReceiver(func(_ netip.Addr, _, _ uint16, resp []byte) {
			m, err := dnswire.Unpack(resp)
			if err != nil {
				t.Fatalf("response %x to %x does not unpack: %v", resp, query, err)
			}
			repacked, err := m.PackInto(nil, &cmp)
			if err != nil || !bytes.Equal(repacked, resp) {
				t.Fatalf("response to %x:\n  wire   %x\n  repack %x (%v)", query, resp, repacked, err)
			}
			if !m.Header.QR || m.Header.ID != id || m.Header.RD != rd {
				t.Fatalf("response header %+v to query id %d rd %v", m.Header, id, rd)
			}
			if len(resp) < len(query) || !bytes.Equal(resp[12:len(query)], query[12:]) {
				t.Fatalf("question %x not echoed in %x", query[12:], resp)
			}
		})
		if err := sendOne(context.Background(), tr, w.Addr(u), 53, 40000, query); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
	})
}
