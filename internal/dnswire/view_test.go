package dnswire

import (
	"bytes"
	"net/netip"
	"testing"

	"goingwild/internal/alloctest"
)

// viewSample builds a response exercising every section the view walks:
// compressed names, A answers (plus a non-A answer), authority NS, and an
// EDNS OPT record.
func viewSample(t *testing.T) ([]byte, *Message) {
	t.Helper()
	m := NewQuery(0xBEEF, "r1a2b.c0a80001.Scan-Base.example", TypeA, ClassIN)
	m.Header.QR = true
	m.Header.RCode = RCodeNoError
	m.AddAnswer("r1a2b.c0a80001.scan-base.example", ClassIN, 60, A{Addr: netip.MustParseAddr("192.0.2.7")})
	m.AddAnswer("r1a2b.c0a80001.scan-base.example", ClassIN, 60, CNAME{Target: "alias.example"})
	m.AddAnswer("alias.example", ClassIN, 60, A{Addr: netip.MustParseAddr("192.0.2.9")})
	m.addAuthority("example", ClassIN, 3600, NS{Host: "ns1.example"})
	m.AddEDNS(4096)
	wire, err := m.PackBytes()
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	return wire, m
}

func TestViewMatchesUnpack(t *testing.T) {
	wire, _ := viewSample(t)
	m, err := Unpack(wire)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	var v View
	if err := v.Reset(wire); err != nil {
		t.Fatalf("view reset: %v", err)
	}
	if v.ID() != m.Header.ID || v.QR() != m.Header.QR || v.RCode() != m.Header.RCode || v.TC() != m.Header.TC {
		t.Fatalf("header mismatch: view id=%d qr=%v rcode=%v", v.ID(), v.QR(), v.RCode())
	}
	if v.QDCount() != len(m.Questions) || v.AnswerCount() != len(m.Answers) {
		t.Fatalf("counts mismatch: qd=%d an=%d", v.QDCount(), v.AnswerCount())
	}
	if got, want := string(v.QName()), m.Questions[0].Name; got != want {
		t.Fatalf("qname: got %q want %q", got, want)
	}
	if v.QType() != m.Questions[0].Type || v.QClass() != m.Questions[0].Class {
		t.Fatalf("question type/class mismatch")
	}
	if !v.HasAnswerA() {
		t.Fatalf("HasAnswerA = false, want true")
	}
	wantAddrs := m.AnswerAddrs()
	gotAddrs := v.AppendAnswerA(nil)
	if len(gotAddrs) != len(wantAddrs) {
		t.Fatalf("A answers: got %d want %d", len(gotAddrs), len(wantAddrs))
	}
	for i, a := range wantAddrs {
		b := a.As4()
		want := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
		if gotAddrs[i] != want {
			t.Fatalf("A answer %d: got %08x want %08x", i, gotAddrs[i], want)
		}
	}
	if !v.HasAuthorityNS() {
		t.Fatalf("HasAuthorityNS = false, want true")
	}
}

func TestViewNoAnswers(t *testing.T) {
	m := NewResponse(NewQuery(7, "a.example", TypeA, ClassIN), RCodeNXDomain)
	wire, err := m.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := v.Reset(wire); err != nil {
		t.Fatal(err)
	}
	if v.HasAnswerA() || v.HasAuthorityNS() {
		t.Fatalf("empty response reported answers")
	}
	if got := v.AppendAnswerA(nil); got != nil {
		t.Fatalf("AppendAnswerA(nil) on empty = %v, want nil (no allocation)", got)
	}
	if _, ok := v.FirstAnswerNS(); ok {
		t.Fatalf("FirstAnswerNS found NS in empty response")
	}
}

func TestViewFirstAnswerNS(t *testing.T) {
	m := NewResponse(NewQuery(3, "com", TypeNS, ClassIN), RCodeNoError)
	m.AddAnswer("com", ClassIN, 777, NS{Host: "a.gtld-servers.net"})
	m.AddAnswer("com", ClassIN, 888, NS{Host: "b.gtld-servers.net"})
	wire, err := m.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := v.Reset(wire); err != nil {
		t.Fatal(err)
	}
	ttl, ok := v.FirstAnswerNS()
	if !ok || ttl != 777 {
		t.Fatalf("FirstAnswerNS = %d,%v want 777,true", ttl, ok)
	}
}

func TestViewAnswerTXTMatchesJoined(t *testing.T) {
	m := NewResponse(NewQuery(9, "version.bind", TypeTXT, ClassCH), RCodeNoError)
	m.AddAnswer("version.bind", ClassCH, 0, TXT{Strings: []string{"9.9", ".5-P1"}})
	m.AddAnswer("version.bind", ClassCH, 0, TXT{Strings: []string{"-extra"}})
	wire, err := m.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	mm, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range mm.Answers {
		if txt, ok := rr.Data.(TXT); ok {
			want += txt.joined()
		}
	}
	var v View
	if err := v.Reset(wire); err != nil {
		t.Fatal(err)
	}
	if got := string(v.AppendAnswerTXT(nil)); got != want {
		t.Fatalf("TXT: got %q want %q", got, want)
	}
}

func TestViewMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 11),
		// count inflation: claims 0xFFFF questions in 12 bytes.
		{0, 1, 0x80, 0, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0},
		// question name runs off the end.
		{0, 1, 0x80, 0, 0, 1, 0, 0, 0, 0, 0, 0, 63},
	}
	var v View
	for i, msg := range cases {
		if err := v.Reset(msg); err == nil {
			t.Fatalf("case %d: Reset accepted malformed message", i)
		}
	}
}

func TestDecodeTargetQNameU32(t *testing.T) {
	const base = "scan-base.example"
	for _, u := range []uint32{0, 1, 0xC0A80001, 0xFFFFFFFF, 0xDEADBEEF} {
		name := EncodeTargetQName("r1a2b", netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)}), base)
		got, ok := DecodeTargetQNameU32([]byte(name), base)
		if !ok || got != u {
			t.Fatalf("round trip %08x: got %08x, ok=%v (name %q)", u, got, ok, name)
		}
		// The string decoder must agree.
		addr, err := DecodeTargetQName(name, base)
		if err != nil {
			t.Fatalf("DecodeTargetQName(%q): %v", name, err)
		}
		b := addr.As4()
		if w := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]); w != got {
			t.Fatalf("decoders disagree: %08x vs %08x", w, got)
		}
	}
	// Mixed case in the base suffix must fold.
	if got, ok := DecodeTargetQNameU32([]byte("p.c0a80001.Scan-Base.EXAMPLE"), base); !ok || got != 0xC0A80001 {
		t.Fatalf("case folding failed: %08x %v", got, ok)
	}
	bad := []string{
		"",
		"scan-base.example",                // no labels before base
		"c0a80001.scan-base.example",       // no prefix label
		"p.c0a8001.scan-base.example",      // 7 hex digits
		"p.c0a80001x.scan-base.example",    // 9-char label
		"p.c0a8z001.scan-base.example",     // non-hex digit
		"p.c0a80001.scan-base.example.org", // wrong base
		"p.c0a80001.xscan-base.example",    // base not on label boundary
	}
	for _, name := range bad {
		if _, ok := DecodeTargetQNameU32([]byte(name), base); ok {
			t.Fatalf("accepted bad name %q", name)
		}
	}
}

func TestDecode0x20BytesMatchesString(t *testing.T) {
	for _, bits := range []uint32{0, 0x1FF, 0xAB, 0x155} {
		name, n := Encode0x20("www.net-flix01.example", bits, 9)
		if n != 9 {
			t.Fatalf("embedded %d bits", n)
		}
		sb, sn := decode0x20(name, 9)
		bb, bn := Decode0x20Bytes([]byte(name), 9)
		if sb != bb || sn != bn {
			t.Fatalf("decoders disagree: string %x/%d bytes %x/%d", sb, sn, bb, bn)
		}
		if bb != bits {
			t.Fatalf("got %x want %x", bb, bits)
		}
	}
}

func TestSkipName(t *testing.T) {
	wire, _ := viewSample(t)
	// Walk the first question with both implementations.
	name, off1, err := unpackName(wire, 12)
	if err != nil {
		t.Fatal(err)
	}
	off2, err := skipName(wire, 12)
	if err != nil {
		t.Fatal(err)
	}
	if off1 != off2 {
		t.Fatalf("skipName offset %d, unpackName offset %d (name %q)", off2, off1, name)
	}
}

func TestAppendTargetQueryMatchesAppendQuery(t *testing.T) {
	const base = "scan-base.example"
	baseWire, err := EncodeNameWire(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []uint32{1, 0xC0A80001, 0xFFFFFFFF} {
		addr := netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
		name := EncodeTargetQName("r1a2b", addr, base)
		want, err := AppendQuery(nil, 0x1234, true, name, TypeA, ClassIN)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendTargetQuery(nil, 0x1234, []byte("r1a2b"), u, baseWire, TypeA, ClassIN)
		if !bytes.Equal(got, want) {
			t.Fatalf("wire mismatch for %08x:\n got %x\nwant %x", u, got, want)
		}
	}
}

func TestUnpackIntoReuse(t *testing.T) {
	wire1, _ := viewSample(t)
	m2 := NewResponse(NewQuery(5, "other.example", TypeA, ClassIN), RCodeNoError)
	wire2, err := m2.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := UnpackInto(wire1, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 3 || len(m.Additional) != 1 {
		t.Fatalf("first unpack: %d answers %d additional", len(m.Answers), len(m.Additional))
	}
	// Reuse must fully replace the previous contents.
	if err := UnpackInto(wire2, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 0 || len(m.Additional) != 0 || len(m.Questions) != 1 {
		t.Fatalf("reused unpack kept stale sections: %d answers", len(m.Answers))
	}
	if m.Questions[0].Name != "other.example" || m.Header.ID != 5 {
		t.Fatalf("reused unpack wrong content: %+v", m.Questions[0])
	}
	// And match a fresh Unpack field for field.
	fresh, err := Unpack(wire2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header != fresh.Header {
		t.Fatalf("header mismatch after reuse")
	}
}

func TestPackIntoReuse(t *testing.T) {
	_, m := viewSample(t)
	want, err := m.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 16) // deliberately small: must grow correctly
	var cmp Compressor
	for i := 0; i < 3; i++ {
		got, err := m.PackInto(buf, &cmp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("PackInto round %d differs from PackBytes", i)
		}
		buf = got[:0]
	}
}

func TestViewResetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	wire, _ := viewSample(t)
	// A truncated answer: the header flag and the question, no records.
	tc := NewQuery(0xBEEF, "r1a2b.c0a80001.Scan-Base.example", TypeA, ClassIN)
	tc.Header.QR, tc.Header.TC = true, true
	tcWire, err := tc.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := v.Reset(wire); err != nil { // warm the name buffer
		t.Fatal(err)
	}
	var sink []uint32
	allocs := alloctest.Count(200, func() {
		if err := v.Reset(wire); err != nil {
			t.Fatal(err)
		}
		if !v.QR() || v.TC() || !v.HasAnswerA() || !v.HasAuthorityNS() {
			t.Fatal("bad view state")
		}
		sink = v.AppendAnswerA(sink[:0])
		if err := v.Reset(tcWire); err != nil {
			t.Fatal(err)
		}
		if !v.TC() || v.HasAnswerA() {
			t.Fatal("bad truncated view state")
		}
	})
	if allocs != 0 {
		t.Fatalf("View decode allocates %d times over 200 runs, want 0", allocs)
	}
}
