package wildnet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"net/netip"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/lfsr"
)

// The response bytes the simulated resolver writes feed prand.FNV, and
// through it the loss and fault draws of every exchange: one moved byte
// moves every seeded report. These tests hold the wire responder to the
// tree encoder it replaced — a digest recorded on the Message-building
// handler (PR 17's commit) over a fixed corpus, and a structural
// round-trip that needs no recorded value.

// goldenQuery is one datagram of the corpus.
type goldenQuery struct {
	at      Time
	dst     uint32
	srcPort uint16
	payload []byte
}

// goldenTime is the instant the corpus is answered at: late enough that
// weekly leases have rotated, so lease epochs are not all zero. The
// order-16 world has no double-responding Chinese resolver that week, so
// the injector race is probed a week later.
var (
	goldenTime       = At(9)
	goldenDoubleTime = At(10)
)

// Recorded at commit dd1b391 (PR 17), whose handler built a Message per
// response and packed it with PackInto, by running this file there.
const (
	goldenCleanDigest   = "b45a0092af9f09359fd11caf22e5e9a7d25c98329b623098614462bec08e4088"
	goldenCleanCount    = 98323
	goldenHostileDigest = "a688cb689d3eeba8a5391da474c4e0ebf3315ec3b281e968e1d4d9601abd60b7"
	goldenHostileCount  = 92572
)

// goldenCorpus enumerates the fixed query set: every responder of an
// order-16 week-9 world × the scan list under 0x20 casings, plus per
// responder the CHAOS, PTR, snooping, NS, ANY (with and without EDNS),
// DNSKEY and unsupported-type questions, plus the trusted resolver, an
// authoritative server and the injector in empty Chinese space.
func goldenCorpus(t *testing.T, w *World) []goldenQuery {
	t.Helper()
	var out []goldenQuery
	at := goldenTime
	add := func(dst uint32, srcPort uint16, payload []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenQuery{at: at, dst: dst, srcPort: srcPort, payload: payload})
	}
	query := func(dst uint32, id uint16, rd bool, name string, typ dnswire.Type, class dnswire.Class, casing uint32) {
		t.Helper()
		wire, err := dnswire.AppendQuery(nil, id, rd, name, typ, class)
		if err == nil {
			dnswire.Encode0x20Bytes(dnswire.QueryNameWire(wire), casing, 9)
		}
		add(dst, 40000+uint16(casing), wire, err)
	}
	edns := func(dst uint32, id uint16, name string, typ dnswire.Type, size uint16) {
		t.Helper()
		q := dnswire.NewQuery(id, name, typ, dnswire.ClassIN)
		q.AddEDNS(size)
		wire, err := q.PackBytes()
		add(dst, 40000, wire, err)
	}

	names := domains.Names()
	var responders []uint32
	var emptyCN uint32
	haveCN := false
	for u := uint32(0); u < uint32(w.SpaceSize()); u++ {
		if _, ok := w.ProfileAt(u, goldenTime); ok {
			responders = append(responders, u)
		} else if !haveCN && w.infra.roleOf(u) == RoleNone && w.geo.LookupU32(u).Country == "CN" {
			emptyCN, haveCN = u, true
		}
	}
	if len(responders) < 200 || !haveCN {
		t.Fatalf("corpus world too small: %d responders, empty CN space found = %v", len(responders), haveCN)
	}
	for ri, u := range responders {
		id := uint16(ri)
		for ni, name := range names {
			query(u, id, true, name, dnswire.TypeA, dnswire.ClassIN, uint32(ri*31+ni)&0x1FF)
		}
		query(u, id, true, "version.bind", dnswire.TypeTXT, dnswire.ClassCH, 0)
		query(u, id, true, "version.server", dnswire.TypeTXT, dnswire.ClassCH, 0x155)
		query(u, id, true, "hostname.bind", dnswire.TypeTXT, dnswire.ClassCH, 0)
		query(u, id, true, ptrName(u), dnswire.TypePTR, dnswire.ClassIN, 0)
		query(u, id, true, ptrName(w.infra.addrOf(RoleSiteHost, ri)), dnswire.TypePTR, dnswire.ClassIN, 0)
		query(u, id, true, "not-an-address.in-addr.arpa", dnswire.TypePTR, dnswire.ClassIN, 0)
		for _, tld := range domains.SnoopedTLDs {
			for seq := uint16(0); seq < 2; seq++ {
				query(u, seq, false, tld, dnswire.TypeNS, dnswire.ClassIN, uint32(ri)&0x1FF)
			}
		}
		query(u, id, true, "com", dnswire.TypeNS, dnswire.ClassIN, 0)
		query(u, id, true, "chase.com", dnswire.TypeNS, dnswire.ClassIN, uint32(ri)&0x1FF)
		query(u, id, true, "chase.com", dnswire.TypeANY, dnswire.ClassIN, uint32(ri)&0x1FF)
		edns(u, id, "chase.com", dnswire.TypeANY, 4096)
		edns(u, id, "chase.com", dnswire.TypeANY, 1232)
		edns(u, id, "ghoogle.com", dnswire.TypeANY, 4096)
		query(u, id, true, domains.GroundTruth, dnswire.TypeDNSKEY, dnswire.ClassIN, 0)
		query(u, id, true, "chase.com", dnswire.TypeDNSKEY, dnswire.ClassIN, 0)
		query(u, id, true, "chase.com", dnswire.TypeMX, dnswire.ClassIN, 0)
		query(u, id, true, "r1.c0a80101."+domains.ScanBase, dnswire.TypeA, dnswire.ClassIN, uint32(ri)&0x1FF)
		query(u, id, true, "", dnswire.TypeA, dnswire.ClassIN, 0)
	}
	for _, role := range []Role{RoleTrustedDNS, RoleAuthNS} {
		srv := w.infra.addrOf(role, 1)
		for ni, name := range names {
			query(srv, uint16(ni), true, name, dnswire.TypeA, dnswire.ClassIN, uint32(ni)&0x1FF)
		}
		query(srv, 7, true, "r1.c0a80101."+domains.ScanBase, dnswire.TypeA, dnswire.ClassIN, 0)
		query(srv, 7, true, ptrName(responders[0]), dnswire.TypePTR, dnswire.ClassIN, 0)
		query(srv, 7, true, "wikileaks.org", dnswire.TypeDNSKEY, dnswire.ClassIN, 0)
		query(srv, 7, true, "chase.com", dnswire.TypeDNSKEY, dnswire.ClassIN, 0)
		query(srv, 7, true, "chase.com", dnswire.TypeMX, dnswire.ClassIN, 0)
	}
	for i, name := range []string{"facebook.com", "wikileaks.org", "chase.com"} {
		query(emptyCN, uint16(i), true, name, dnswire.TypeA, dnswire.ClassIN, 0x0AA)
		query(emptyCN, uint16(i), true, name, dnswire.TypeNS, dnswire.ClassIN, 0)
	}
	at = goldenDoubleTime
	doubles := 0
	for u := uint32(0); u < uint32(w.SpaceSize()); u++ {
		if p, ok := w.ProfileAt(u, at); ok && p.GFWDouble {
			doubles++
			for i, name := range gfwNames {
				query(u, uint16(i), true, name, dnswire.TypeA, dnswire.ClassIN, uint32(u)&0x1FF)
			}
		}
	}
	if doubles == 0 {
		t.Fatal("no double-responding resolver in the corpus world")
	}
	return out
}

// goldenResponse is one delivered response.
type goldenResponse struct {
	src    netip.Addr
	toPort uint16
	wire   []byte
}

// sendGolden sends one corpus datagram and returns what came back.
func sendGolden(t *testing.T, tr *MemTransport, got *[]goldenResponse, q goldenQuery) []goldenResponse {
	t.Helper()
	*got = (*got)[:0]
	if tr.Time() != q.at {
		tr.SetTime(q.at)
	}
	if err := sendOne(context.Background(), tr, lfsr.U32ToAddr(q.dst), 53, q.srcPort, q.payload); err != nil {
		t.Fatal(err)
	}
	return *got
}

// goldenDigest runs the corpus through one-probe batches and folds every delivered
// response — claimed source, destination port, length, bytes — into one
// SHA-256, returning it with the response count. each, when set, sees
// every exchange.
func goldenDigest(t *testing.T, w *World, each func(q goldenQuery, resps []goldenResponse)) (string, int) {
	t.Helper()
	tr := NewMemTransport(w, VantagePrimary)
	defer tr.Close()
	var got []goldenResponse
	tr.SetReceiver(func(src netip.Addr, srcPort, dstPort uint16, payload []byte) {
		if srcPort != 53 {
			t.Errorf("response from port %d", srcPort)
		}
		got = append(got, goldenResponse{src: src, toPort: dstPort, wire: append([]byte(nil), payload...)})
	})
	h := sha256.New()
	n := 0
	var frame [8]byte
	for _, q := range goldenCorpus(t, w) {
		resps := sendGolden(t, tr, &got, q)
		for _, r := range resps {
			binary.BigEndian.PutUint32(frame[0:], lfsr.AddrToU32(r.src))
			binary.BigEndian.PutUint16(frame[4:], r.toPort)
			binary.BigEndian.PutUint16(frame[6:], uint16(len(r.wire)))
			h.Write(frame[:])
			h.Write(r.wire)
			n++
		}
		if each != nil {
			each(q, resps)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

func goldenWorld(t *testing.T, profile string) *World {
	t.Helper()
	if profile == "" {
		return losslessWorld(t, 16)
	}
	return faultyWorld(t, 16, profile)
}

// TestResponseWireGolden: the responder reproduces, byte for byte, what
// the Message-building handler sent for the corpus — on a lossless clean
// world, and under the hostile profile, where the response bytes also
// decide drops, garbles, duplicates and truncation.
func TestResponseWireGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus is ~100k exchanges")
	}
	for _, tc := range []struct {
		profile string
		digest  string
		n       int
	}{
		{"", goldenCleanDigest, goldenCleanCount},
		{"hostile", goldenHostileDigest, goldenHostileCount},
	} {
		digest, n := goldenDigest(t, goldenWorld(t, tc.profile), nil)
		if digest != tc.digest || n != tc.n {
			t.Errorf("profile %q: %d responses, digest %s; the tree encoder sent %d, digest %s",
				tc.profile, n, digest, tc.n, tc.digest)
		}
	}
}

// TestResponseWireRoundTrips is the structural half, true of any corpus:
// every response decodes with Unpack and re-encodes through PackInto to
// the very bytes that were delivered — the builder makes the tree
// encoder's compression choices — and a truncated response equals the
// packed Message{Header(+TC), Questions} of the full answer.
func TestResponseWireRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus is ~100k exchanges")
	}
	w := goldenWorld(t, "")
	var cmp dnswire.Compressor
	var buf []byte
	truncated, doubles := 0, 0
	goldenDigest(t, w, func(q goldenQuery, resps []goldenResponse) {
		if len(resps) == 2 {
			doubles++
		}
		for _, r := range resps {
			m, err := dnswire.Unpack(r.wire)
			if err != nil {
				t.Fatalf("response to %x does not unpack: %v", q.payload, err)
			}
			repacked, err := m.PackInto(buf, &cmp)
			if err != nil {
				t.Fatalf("response to %x does not repack: %v", q.payload, err)
			}
			buf = repacked[:0]
			if !bytes.Equal(repacked, r.wire) {
				t.Fatalf("response to %x:\n  wire   %x\n  repack %x", q.payload, r.wire, repacked)
			}
			if !m.Header.TC {
				continue
			}
			truncated++
			qm, err := dnswire.Unpack(q.payload)
			if err != nil {
				t.Fatal(err)
			}
			full := handle(w, VantagePrimary, q.srcPort, q.dst, qm, q.at)
			if len(full) != 1 || len(resps) != 1 {
				t.Fatalf("truncated exchange with %d responses (%d delivered)", len(full), len(resps))
			}
			cut := dnswire.Message{Header: full[0].Msg.Header, Questions: full[0].Msg.Questions}
			cut.Header.TC = true
			want, err := cut.PackInto(nil, &cmp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, r.wire) {
				t.Fatalf("TC cut of %x:\n  wire %x\n  want %x", q.payload, r.wire, want)
			}
		}
	})
	if truncated == 0 || doubles == 0 {
		t.Fatalf("corpus exercised %d truncations and %d double responses; want both", truncated, doubles)
	}
}
