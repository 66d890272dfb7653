package dnswire

import (
	"net/netip"
	"testing"
	"testing/quick"
)

// decode0x20 recovers up to n bits from the letter casing of name,
// mirroring Encode0x20. It returns the bits and how many were read.
func decode0x20(name string, n int) (uint32, int) {
	var bits uint32
	bit := 0
	for i := 0; i < len(name) && bit < n; i++ {
		c := name[i]
		if !isLetter(c) {
			continue
		}
		if c&0x20 == 0 { // upper case
			bits |= 1 << uint(bit)
		}
		bit++
	}
	return bits, bit
}

func TestTargetQNameRoundTrip(t *testing.T) {
	base := "scan.example.edu"
	addr := netip.MustParseAddr("203.0.113.77")
	name := EncodeTargetQName("r7f3", addr, base)
	if name != "r7f3.cb00714d.scan.example.edu" {
		t.Errorf("encoded name = %q", name)
	}
	got, err := DecodeTargetQName(name, base)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != addr {
		t.Errorf("decoded %v, want %v", got, addr)
	}
}

func TestTargetQNameRoundTripProperty(t *testing.T) {
	f := func(a, b, c, d byte, prefix uint16) bool {
		addr := netip.AddrFrom4([4]byte{a, b, c, d})
		name := EncodeTargetQName("p"+itoa(int(prefix)), addr, "Scan.Example.EDU")
		got, err := DecodeTargetQName(name, "scan.example.edu")
		return err == nil && got == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestDecodeTargetQNameRejects(t *testing.T) {
	cases := []string{
		"example.com",                  // wrong base
		"scan.example.edu",             // no labels before base
		"p1.zzzz714d.scan.example.edu", // bad hex
		"p1.cb0071.scan.example.edu",   // short hex
	}
	for _, name := range cases {
		if _, err := DecodeTargetQName(name, "scan.example.edu"); err == nil {
			t.Errorf("%q: decode accepted", name)
		}
	}
}

func TestProbeIDSplitJoin(t *testing.T) {
	ids := []ProbeID{0, 1, 0xFFFF, 0x10000, MaxProbeID, 12345678}
	for _, id := range ids {
		txid, port := SplitProbeID(id)
		if got := JoinProbeID(txid, port); got != id {
			t.Errorf("SplitProbeID/JoinProbeID(%d) = %d", id, got)
		}
	}
}

func TestProbeIDProperty(t *testing.T) {
	f := func(raw uint32) bool {
		id := ProbeID(raw & MaxProbeID)
		txid, port := SplitProbeID(id)
		return port < ProbePortCount && JoinProbeID(txid, port) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func Test0x20RoundTrip(t *testing.T) {
	name := "okcupid.com"
	bits := uint32(0x1A5)
	enc, n := Encode0x20(name, bits, 9)
	if n != 9 {
		t.Fatalf("embedded %d bits, want 9", n)
	}
	if CanonicalName(enc) != name {
		t.Errorf("encoding changed the name: %q", enc)
	}
	got, n2 := decode0x20(enc, 9)
	if n2 != 9 || got != bits {
		t.Errorf("decoded %#x (%d bits), want %#x", got, n2, bits)
	}
}

func Test0x20RoundTripProperty(t *testing.T) {
	f := func(raw uint16) bool {
		bits := uint32(raw & 0x1FF)
		enc, n := Encode0x20("thepiratebay.se", bits, 9)
		got, m := decode0x20(enc, 9)
		return n == 9 && m == 9 && got == bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func Test0x20FewLetters(t *testing.T) {
	// Only 2 letters available: must report the truncated bit count.
	enc, n := Encode0x20("a1.b2", 0x3, 9)
	if n != 2 {
		t.Fatalf("embedded %d bits, want 2", n)
	}
	got, m := decode0x20(enc, 9)
	if m != 2 || got != 0x3 {
		t.Errorf("decoded %#x (%d bits)", got, m)
	}
}

func Test0x20SkipsDigitsAndDots(t *testing.T) {
	enc, _ := Encode0x20("bet-at-home.com", 0x1FF, 9)
	got, _ := decode0x20(enc, 9)
	if got != 0x1FF {
		t.Errorf("bits through punctuation = %#x", got)
	}
}

func TestEDNSHelpers(t *testing.T) {
	q := NewQuery(1, "chase.com", TypeANY, ClassIN)
	ednsOf := func() (uint16, bool) {
		t.Helper()
		wire, err := q.PackBytes()
		if err != nil {
			t.Fatal(err)
		}
		var v View
		if err := v.Reset(wire); err != nil {
			t.Fatal(err)
		}
		size, ok, err := v.EDNSPayloadSize()
		if err != nil {
			t.Fatal(err)
		}
		return size, ok
	}
	if _, ok := ednsOf(); ok {
		t.Error("EDNS detected on a plain query")
	}
	q.AddEDNS(4096)
	if size, ok := ednsOf(); !ok || size != 4096 {
		t.Errorf("EDNS size = %d/%v", size, ok)
	}
	got, err := q.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	if m, err := Unpack(got); err != nil || len(m.Additional) != 1 || m.Additional[0].Type() != TypeOPT || m.Additional[0].Class != 4096 {
		t.Errorf("OPT record after round trip: %v", err)
	}
}
