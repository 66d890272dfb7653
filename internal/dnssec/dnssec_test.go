package dnssec

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
)

// rrsetOf returns the RDATA of an A RRset.
func rrsetOf(addrs ...uint32) [][]byte {
	var out [][]byte
	for _, a := range addrs {
		out = append(out, binary.BigEndian.AppendUint32(nil, a))
	}
	return out
}

func TestSignVerifyRoundTrip(t *testing.T) {
	key := NewZoneKey("wikileaks.org", 7)
	rrs := rrsetOf(0x01020304, 0x05060708)
	sig := key.Sign("wikileaks.org", dnswire.ClassIN, 300, dnswire.TypeA, rrs)
	if !Verify(key.Public, &sig, "wikileaks.org", dnswire.ClassIN, rrs) {
		t.Fatal("valid signature rejected")
	}
}

func TestVerifyRejectsTamperedRRset(t *testing.T) {
	key := NewZoneKey("paypal.com", 7)
	rrs := rrsetOf(0x01020304)
	sig := key.Sign("paypal.com", dnswire.ClassIN, 300, dnswire.TypeA, rrs)
	forged := rrsetOf(0x0A0B0C0D)
	if Verify(key.Public, &sig, "paypal.com", dnswire.ClassIN, forged) {
		t.Fatal("signature covered a forged RRset")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	key := NewZoneKey("a.example", 7)
	other := NewZoneKey("b.example", 7)
	rrs := rrsetOf(1)
	sig := key.Sign("a.example", dnswire.ClassIN, 300, dnswire.TypeA, rrs)
	if Verify(other.Public, &sig, "a.example", dnswire.ClassIN, rrs) {
		t.Fatal("foreign key verified the signature")
	}
}

func TestVerifyOrderIndependent(t *testing.T) {
	key := NewZoneKey("x.example", 9)
	rrs := rrsetOf(3, 1, 2)
	sig := key.Sign("x.example", dnswire.ClassIN, 300, dnswire.TypeA, rrs)
	shuffled := rrsetOf(2, 3, 1)
	if !Verify(key.Public, &sig, "x.example", dnswire.ClassIN, shuffled) {
		t.Fatal("canonical ordering not applied")
	}
}

func TestVerifyCaseFolded(t *testing.T) {
	key := NewZoneKey("x.example", 9)
	rrs := rrsetOf(3)
	sig := key.Sign("x.example", dnswire.ClassIN, 300, dnswire.TypeA, rrs)
	if !Verify(key.Public, &sig, "X.ExAmple", dnswire.ClassIN, rrs) {
		t.Fatal("0x20-mixed name broke validation")
	}
}

func TestKeyDeterminism(t *testing.T) {
	a := NewZoneKey("z.example", 42)
	b := NewZoneKey("z.example", 42)
	if string(a.Public) != string(b.Public) || a.KeyTag != b.KeyTag {
		t.Error("keys differ for identical (zone, seed)")
	}
	c := NewZoneKey("z.example", 43)
	if string(a.Public) == string(c.Public) {
		t.Error("different seeds produced the same key")
	}
}

func TestRRSIGWireRoundTrip(t *testing.T) {
	key := NewZoneKey("wikileaks.org", 7)
	rrs := rrsetOf(0x01020304)
	sig := key.Sign("wikileaks.org", dnswire.ClassIN, 300, dnswire.TypeA, rrs)
	q := dnswire.NewQuery(1, "wikileaks.org", dnswire.TypeA, dnswire.ClassIN)
	resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
	resp.AddAnswer("wikileaks.org", dnswire.ClassIN, 300, dnswire.A{Addr: lfsr.U32ToAddr(0x01020304)})
	resp.AddAnswer("wikileaks.org", dnswire.ClassIN, 300, sig)
	resp.AddAnswer("wikileaks.org", dnswire.ClassIN, 3600, key.DNSKEY())
	wire, err := resp.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !ValidateResponse(key.Public, wire) {
		t.Fatal("validation failed after wire round trip")
	}
	// One answer address flipped: the signature no longer covers it.
	forged := bytes.Clone(wire)
	forged[bytes.Index(forged, []byte{1, 2, 3, 4})] = 9
	if ValidateResponse(key.Public, forged) {
		t.Fatal("a forged answer validated")
	}
}

func TestValidateResponseRejectsUnsigned(t *testing.T) {
	key := NewZoneKey("wikileaks.org", 7)
	q := dnswire.NewQuery(1, "wikileaks.org", dnswire.TypeA, dnswire.ClassIN)
	resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
	resp.AddAnswer("wikileaks.org", dnswire.ClassIN, 300, dnswire.A{Addr: lfsr.U32ToAddr(0x7F000001)})
	wire, err := resp.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	if ValidateResponse(key.Public, wire) {
		t.Fatal("unsigned response validated")
	}
}

func TestSignatureNotForgeableProperty(t *testing.T) {
	key := NewZoneKey("gt.example", 11)
	rrs := rrsetOf(0xC0000201)
	sig := key.Sign("gt.example", dnswire.ClassIN, 300, dnswire.TypeA, rrs)
	f := func(flip uint16, idx uint8) bool {
		mut := sig
		mut.Signature = append([]byte(nil), sig.Signature...)
		mut.Signature[int(idx)%len(mut.Signature)] ^= byte(flip | 1)
		return !Verify(key.Public, &mut, "gt.example", dnswire.ClassIN, rrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
