package dnswire

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// header returns a response header (QR, RD, RA) with the given counts.
func header(qd, an, ns, ar int) []byte {
	h := []byte{0x0A, 0x3F, 0x81, 0x80}
	for _, c := range []int{qd, an, ns, ar} {
		h = binary.BigEndian.AppendUint16(h, uint16(c))
	}
	return h
}

// rr returns a record with the given owner-name octets, type and RDATA,
// class IN and TTL 300.
func rr(owner []byte, typ Type, rdata []byte) []byte {
	b := append([]byte(nil), owner...)
	b = binary.BigEndian.AppendUint16(b, uint16(typ))
	b = append(b, 0, 1, 0, 0, 1, 0x2C)
	b = binary.BigEndian.AppendUint16(b, uint16(len(rdata)))
	return append(b, rdata...)
}

func cat(parts ...[]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// The question of every table message sits at offset 12, so a pointer to
// it is 0xC0 0x0C; a.example's wire form is 11 octets.
var (
	question = cat([]byte{1, 'a', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0}, []byte{0, 1, 0, 1})
	toQName  = []byte{0xC0, 12}
	fixed18  = make([]byte, 18) // an RRSIG's fields before its signer
)

// pointerChain returns an unmodelled record whose RDATA is n two-octet
// compression pointers, each to the one before it and the first to the
// question name, and the pointer to its last link: an owner name there
// takes n+1 hops.
func pointerChain(at, n int) (record, last []byte) {
	rdOff := at + 2 + 10
	var rdata []byte
	prev := 12
	for i := 0; i < n; i++ {
		rdata = append(rdata, 0xC0|byte(prev>>8), byte(prev))
		prev = rdOff + 2*i
	}
	return rr(toQName, Type(99), rdata), []byte{0xC0 | byte(prev>>8), byte(prev)}
}

// TestValidateVerdicts pins Validate to the verdict and the error the
// full decoder gave each malformed shape before the rule moved onto the
// View (unpackRef), and Unpack, built on Validate, to the same. The last
// four rows are datagrams captured from the hostile fault profile's
// garbling (an order-18 world, seed 126450538, week 9, one ANY probe
// per NOERROR resolver): each passes Reset and a structural walk of its
// records, and only the full rule refuses it.
func TestValidateVerdicts(t *testing.T) {
	chainQ, lastQ := pointerChain(12+len(question), 140)
	cases := []struct {
		name string
		msg  []byte
		want error // nil: accepted
	}{
		{"well-formed A answer", cat(header(1, 1, 0, 0), question, rr(toQName, TypeA, []byte{192, 0, 2, 1})), nil},
		{"A record of 3 octets", cat(header(1, 1, 0, 0), question, rr(toQName, TypeA, []byte{192, 0, 2})), ErrBadRData},
		{"bad pointer in an owner name", cat(header(1, 1, 0, 0), question, rr([]byte{0xC0, 0x60}, TypeA, []byte{192, 0, 2, 1})), ErrBadPointer},
		{"bad pointer in a second question", cat(header(2, 0, 0, 0), question, []byte{0xC0, 0x40, 0, 1, 0, 1}), ErrBadPointer},
		{"pointer loop", cat(header(1, 2, 0, 0), question, chainQ, rr(lastQ, TypeA, []byte{192, 0, 2, 1})), ErrPointerLoop},
		{"MX record of 2 octets", cat(header(1, 1, 0, 0), question, rr(toQName, TypeMX, []byte{0, 10})), ErrBadRData},
		{"truncated SOA record", cat(header(1, 1, 0, 0), question, rr(toQName, TypeSOA, cat(toQName, toQName, make([]byte, 19)))), ErrBadRData},
		{"overrunning TXT string", cat(header(1, 1, 0, 0), question, rr(toQName, TypeTXT, []byte{2, 'h', 'i', 5, 'x'})), ErrBadRData},
		{"DNSKEY record of 3 octets", cat(header(1, 1, 0, 0), question, rr(toQName, TypeDNSKEY, []byte{1, 1, 3})), ErrBadRData},
		{"RRSIG record of 17 octets", cat(header(1, 1, 0, 0), question, rr(toQName, TypeRRSIG, fixed18[:17])), ErrBadRData},
		{"RRSIG signer past its RDATA", cat(header(1, 1, 0, 0), question, rr(toQName, TypeRRSIG, cat(fixed18, question[:5])), question[5:11]), ErrBadRData},
		{"trailing garbage", cat(header(1, 1, 0, 0), question, rr(toQName, TypeA, []byte{192, 0, 2, 1}), []byte{0xDE, 0xAD, 0xBE}), nil},
		{"hostile: reserved label in an NS target", mustHex("0a3f8180000100060000000005636861736503636f6d0000ff0001c00c000100010000012c00040003fb35c00c000100010000012c00040003fb36c00c000100010000012c00040003fb37c00c000200010000012c0006ac6e7331c00cc00c000200010000012c0006036e7332c00cc00c000600010000012c0023c0570a686f73746d6173745672c00c781a9d3400001c20000003840012750000000e10"), ErrReservedLabel},
		{"hostile: forward pointer in an owner name", mustHex("0a3f8180000100060000000005636861736503636f6d0000ff0001c03b000100010000012c00040003fb35c00c270100010000012c00040003fb36c00c000100010000012c00040003fb37c00c000200010000012c0006036e7331c00cc00c000200010000012c0006036e7332c00cc00c000600010000012c0023c0570a686f73746d6173747472c00c781a9d3400001c20000003840012750000000e10"), ErrBadPointer},
		{"hostile: pointer past the message in an owner name", mustHex("0a3f8180000100030000000005636861736503636f6d0000ff0001c00c000100010000012c00040003fb35f10c000100010000012c00040003fb36c00c000100010000012c00040003fb37"), ErrBadPointer},
		{"hostile: pointer into a label's text", mustHex("0a3f8180000100030000000005636861736503636f6d0000ff0001c00c000100010000012c00040003fb35c00c000100010000012c00040003fb36c00d000100010000012c00040003fb37"), ErrReservedLabel},
	}
	var v View
	for _, tc := range cases {
		resetErr := v.Reset(tc.msg)
		got := v.Validate()
		if !errors.Is(got, tc.want) || (got == nil) != (tc.want == nil) {
			t.Errorf("%s: Validate = %v, want %v", tc.name, got, tc.want)
		}
		_, ref := unpackRef(tc.msg)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Errorf("%s: Validate = %v, the reference decoder %v", tc.name, got, ref)
		}
		if _, err := Unpack(tc.msg); fmt.Sprint(err) != fmt.Sprint(ref) {
			t.Errorf("%s: Unpack = %v, the reference decoder %v", tc.name, err, ref)
		}
		if resetErr != nil && got == nil {
			t.Errorf("%s: Validate accepted what Reset refused (%v)", tc.name, resetErr)
		}
	}
}

// FuzzValidate is the differential between the acceptance rule on the
// View and the reference decoder: Validate returns unpackRef's error, and
// on what both accept Unpack builds unpackRef's tree.
func FuzzValidate(f *testing.F) {
	q := NewQuery(7, "r1.c0a80101.scan.dnsstudy.example.edu", TypeA, ClassIN)
	wire, _ := q.PackBytes()
	f.Add(wire)
	resp := NewResponse(q, RCodeNoError)
	resp.AddAnswer(q.Questions[0].Name, ClassIN, 300, TXT{Strings: []string{"x"}})
	resp.AddAnswer(q.Questions[0].Name, ClassIN, 300, MX{Preference: 5, Host: "mx.scan.dnsstudy.example.edu"})
	resp.addAuthority("scan.dnsstudy.example.edu", ClassIN, 60, SOA{MName: "ns1", RName: "h"})
	resp.AddEDNS(1232)
	wire2, _ := resp.PackBytes()
	f.Add(wire2)
	f.Fuzz(func(t *testing.T, data []byte) {
		var v View
		resetErr := v.Reset(data)
		err := v.Validate()
		want, ref := unpackRef(data)
		if fmt.Sprint(err) != fmt.Sprint(ref) {
			t.Fatalf("Validate = %v, reference %v", err, ref)
		}
		if err == nil && resetErr != nil {
			t.Fatalf("Validate accepted what Reset refused (%v)", resetErr)
		}
		got, uerr := Unpack(data)
		if fmt.Sprint(uerr) != fmt.Sprint(ref) || !reflect.DeepEqual(got, want) {
			t.Fatalf("Unpack = %v, %v; reference %v, %v", got, uerr, want, ref)
		}
	})
}
