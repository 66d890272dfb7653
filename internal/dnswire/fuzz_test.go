package dnswire

import (
	"net/netip"
	"testing"
)

// FuzzUnpack hardens the wire decoder against hostile responders: no
// input may panic, and anything that unpacks must re-pack and unpack to
// the same structure where packable.
func FuzzUnpack(f *testing.F) {
	q := NewQuery(7, "r1.c0a80101.scan.dnsstudy.example.edu", TypeA, ClassIN)
	wire, _ := q.PackBytes()
	f.Add(wire)
	resp := NewResponse(q, RCodeNoError)
	resp.AddAnswer(q.Questions[0].Name, ClassIN, 300, TXT{Strings: []string{"x"}})
	resp.addAuthority("scan.dnsstudy.example.edu", ClassIN, 60, SOA{MName: "ns1", RName: "h"})
	wire2, _ := resp.PackBytes()
	f.Add(wire2)
	f.Add([]byte{0, 1, 0, 0, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		repacked, err := m.PackBytes()
		if err != nil {
			return // some decodable messages are not canonical
		}
		if _, err := Unpack(repacked); err != nil {
			t.Fatalf("repacked message does not unpack: %v", err)
		}
	})
}

// FuzzView hardens the zero-alloc receive-path decoder: no input may
// panic Reset or any accessor, and a View that accepts a payload must
// agree with the allocating Unpack decoder on the header fields.
func FuzzView(f *testing.F) {
	q := NewQuery(7, "r1.c0a80101.scan.dnsstudy.example.edu", TypeA, ClassIN)
	wire, _ := q.PackBytes()
	f.Add(wire)
	resp := NewResponse(q, RCodeNoError)
	resp.AddAnswer(q.Questions[0].Name, ClassIN, 300, A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1})})
	wire2, _ := resp.PackBytes()
	f.Add(wire2)
	f.Add([]byte{0, 1, 0x80, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3, 'f', 'o', 'o', 0, 0, 1, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := GetView()
		defer PutView(v)
		if err := v.Reset(data); err != nil {
			return
		}
		// Drive every accessor: the walk over answer and authority
		// sections must tolerate any record layout Reset admitted.
		_ = v.ID()
		_ = v.QR()
		_ = v.TC()
		_ = v.RCode()
		_ = v.QName()
		_ = v.QType()
		_ = v.QClass()
		_ = v.HasAnswerA()
		_ = v.AppendAnswerA(nil)
		_ = v.AppendAnswerTXT(nil)
		_ = v.HasAuthorityNS()
		_, _ = v.FirstAnswerNS()
		if m, err := Unpack(data); err == nil {
			if m.Header.ID != v.ID() || m.Header.QR != v.QR() || m.Header.RCode != v.RCode() {
				t.Fatalf("View header (id=%d qr=%v rc=%v) disagrees with Unpack (id=%d qr=%v rc=%v)",
					v.ID(), v.QR(), v.RCode(), m.Header.ID, m.Header.QR, m.Header.RCode)
			}
		}
	})
}

// FuzzDecodeTargetQName holds the string decoder and the byte decoder the
// scan-response attribution path uses to one answer for every name.
func FuzzDecodeTargetQName(f *testing.F) {
	const base = "scan.dnsstudy.example.edu"
	f.Add("r1.c0a80101.scan.dnsstudy.example.edu")
	f.Add("scan.dnsstudy.example.edu")
	f.Add(".c0a80101.scan.dnsstudy.example.edu")
	f.Add("..")
	f.Fuzz(func(t *testing.T, name string) {
		addr, err := DecodeTargetQName(name, base)
		u, ok := DecodeTargetQNameU32([]byte(CanonicalName(name)), base)
		if (err == nil) != ok || ok && addr != netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)}) {
			t.Fatalf("%q: string decoder %v, %v; byte decoder %08x, %v", name, addr, err, u, ok)
		}
	})
}
