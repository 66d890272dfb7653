package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"goingwild/internal/alloctest"
	"goingwild/internal/domains"
)

// The reference encoder: the Split/Join/ToLower/map appendName the
// Compressor replaced, kept verbatim so the differential tests below can
// hold the new encoder to its bytes. Packed responses feed the simulated
// network's loss and fault draws, so byte equality here is what keeps
// seeded reports identical across the rewrite.

func refCanonicalName(name string) string {
	name = strings.TrimSuffix(name, ".")
	for i := 0; i < len(name); i++ {
		if c := name[i]; 'A' <= c && c <= 'Z' {
			return strings.ToLower(name)
		}
	}
	return name
}

func refAppendName(buf []byte, name string, cmp map[string]int) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return append(buf, 0), nil
	}
	if len(name)+2 > maxNameWire {
		return buf, ErrNameTooLong
	}
	labels := strings.Split(name, ".")
	for i, label := range labels {
		if label == "" {
			return buf, ErrEmptyLabel
		}
		if len(label) > maxLabelWire {
			return buf, ErrLabelTooLong
		}
		if cmp != nil {
			suffix := refCanonicalName(strings.Join(labels[i:], "."))
			if off, ok := cmp[suffix]; ok && off < 0x4000 {
				return append(buf, 0xC0|byte(off>>8), byte(off)), nil
			}
			if len(buf) < 0x4000 {
				cmp[suffix] = len(buf)
			}
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	return append(buf, 0), nil
}

// refAppendRData encodes the name-carrying bodies through refAppendName;
// every other body carries no compressible name and uses its own encoder.
func refAppendRData(buf []byte, d RData, cmp map[string]int) ([]byte, error) {
	switch d := d.(type) {
	case NS:
		return refAppendName(buf, d.Host, cmp)
	case CNAME:
		return refAppendName(buf, d.Target, cmp)
	case PTR:
		return refAppendName(buf, d.Target, cmp)
	case MX:
		buf = binary.BigEndian.AppendUint16(buf, d.Preference)
		return refAppendName(buf, d.Host, cmp)
	case SOA:
		var err error
		if buf, err = refAppendName(buf, d.MName, cmp); err != nil {
			return buf, err
		}
		if buf, err = refAppendName(buf, d.RName, cmp); err != nil {
			return buf, err
		}
		for _, v := range []uint32{d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum} {
			buf = binary.BigEndian.AppendUint32(buf, v)
		}
		return buf, nil
	default:
		return d.appendTo(buf, nil)
	}
}

// refPack is PackInto over the reference name encoder. It shares the
// header through a question-less, record-less copy of m, which no name
// encoder touches.
func refPack(m *Message) ([]byte, error) {
	buf, err := (&Message{Header: m.Header}).PackBytes()
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint16(buf[4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(buf[6:], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(buf[8:], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(buf[10:], uint16(len(m.Additional)))
	cmp := map[string]int{}
	for _, q := range m.Questions {
		if buf, err = refAppendName(buf, q.Name, cmp); err != nil {
			return buf, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, section := range [][]ResourceRecord{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			if buf, err = refAppendName(buf, rr.Name, cmp); err != nil {
				return buf, err
			}
			buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type()))
			buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
			buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
			lenOff := len(buf)
			buf = append(buf, 0, 0)
			if buf, err = refAppendRData(buf, rr.Data, cmp); err != nil {
				return buf, err
			}
			binary.BigEndian.PutUint16(buf[lenOff:], uint16(len(buf)-lenOff-2))
		}
	}
	return buf, nil
}

// mustMatchRef packs m with both encoders and requires the same bytes, or
// the same error and the same bytes written up to it.
func mustMatchRef(t testing.TB, what string, m *Message) []byte {
	t.Helper()
	got, gotErr := m.PackBytes()
	want, wantErr := refPack(m)
	if !errors.Is(gotErr, wantErr) {
		t.Fatalf("%s: pack error %v, reference %v", what, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: packed bytes differ from the reference encoder\n got %x\nwant %x", what, got, want)
	}
	return got
}

// nameRecords is one record of every type whose body carries names, all
// hanging off name in mixed casings so suffixes are shared across owner
// names and RDATA.
func nameRecords(m *Message, name string) {
	upper := strings.ToUpper(name)
	m.AddAnswer(name, ClassIN, 300, A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1})})
	m.AddAnswer(upper, ClassIN, 300, CNAME{Target: "www." + name})
	m.AddAnswer("www."+upper, ClassIN, 300, MX{Preference: 10, Host: "Mail." + name + "."})
	m.addAuthority(name, ClassIN, 300, NS{Host: "ns1." + upper})
	m.addAuthority(name+".", ClassIN, 300, NS{Host: "ns2." + name})
	m.addAuthority(name, ClassIN, 60, SOA{MName: "ns1." + name, RName: "Hostmaster." + upper, Serial: 7})
	m.Additional = append(m.Additional, ResourceRecord{Name: "1.2.0.192.in-addr.arpa", Class: ClassIN, TTL: 60, Data: PTR{Target: "host." + name}})
	m.Additional = append(m.Additional, ResourceRecord{Name: "ns1." + name, Class: ClassIN, TTL: 60, Data: TXT{Strings: []string{"v=1"}}})
}

func TestCompressorMatchesReferenceOnScanNames(t *testing.T) {
	for _, name := range domains.Names() {
		for _, bits := range []uint32{0, 0x1FF, 0x155, 0x0AA, 0x101} {
			qname, _ := Encode0x20(name, bits, 9)
			m := NewResponse(NewQuery(uint16(bits), qname, TypeA, ClassIN), RCodeNoError)
			nameRecords(m, name)
			wire := mustMatchRef(t, fmt.Sprintf("%s/%#x", qname, bits), m)
			back, err := Unpack(wire)
			if err != nil {
				t.Fatalf("%s: unpack: %v", qname, err)
			}
			if back.Questions[0].Name != qname {
				t.Fatalf("question %q unpacked as %q", qname, back.Questions[0].Name)
			}
		}
	}
}

func TestAppendNameMatchesReferenceErrors(t *testing.T) {
	label63 := strings.Repeat("a", 63)
	cases := []struct {
		name string
		err  error
	}{
		{"", nil},
		{".", nil},
		{"example.com", nil},
		{"example.com.", nil},
		{label63 + ".com", nil},
		{label63 + "a.com", ErrLabelTooLong},
		{"ok." + label63 + "a", ErrLabelTooLong},
		// 253 octets is the longest legal name; a trailing dot is not counted.
		{strings.Repeat("abcdefg.", 31) + "abcde", nil},
		{strings.Repeat("abcdefg.", 31) + "abcde.", nil},
		{strings.Repeat("abcdefg.", 31) + "abcdef", ErrNameTooLong},
		{strings.Repeat("abcdefg.", 31) + "abcdef.", ErrNameTooLong},
		{"a..b", ErrEmptyLabel},
		{"a..", ErrEmptyLabel},
		{".a", ErrEmptyLabel},
		{"..", ErrEmptyLabel},
	}
	for _, c := range cases {
		for _, compress := range []bool{false, true} {
			var cmp *Compressor
			var ref map[string]int
			if compress {
				cmp, ref = new(Compressor), map[string]int{}
			}
			prefix := []byte{0xAA, 0xBB}
			got, gotErr := appendName(prefix, c.name, cmp)
			want, wantErr := refAppendName(prefix, c.name, ref)
			if gotErr != c.err || wantErr != c.err {
				t.Errorf("appendName(%q, compress=%v) error %v, reference %v, want %v", c.name, compress, gotErr, wantErr, c.err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("appendName(%q, compress=%v) wrote %x, reference %x", c.name, compress, got, want)
			}
		}
	}
}

// TestAppendNameDoubleDotAlwaysFails pins the one place the encoders part
// on ASCII input, on purpose. The reference canonicalised each joined
// suffix, which strips the dot an empty last label leaves behind, so
// "example.com.." found the pointer registered for "example.com" and
// packed without error. An empty label is an error wherever it sits.
func TestAppendNameDoubleDotAlwaysFails(t *testing.T) {
	m := NewResponse(NewQuery(1, "example.com", TypeA, ClassIN), RCodeNoError)
	m.AddAnswer("example.com..", ClassIN, 60, A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1})})
	if _, err := refPack(m); err != nil {
		t.Fatalf("reference encoder no longer shows the quirk: %v", err)
	}
	if _, err := m.PackBytes(); !errors.Is(err, ErrEmptyLabel) {
		t.Fatalf("pack of owner %q: error %v, want ErrEmptyLabel", m.Answers[0].Name, err)
	}
}

// TestCompressorMatchesReferenceAcross0x4000: a pointer holds 14 bits, so
// suffixes first written at or past offset 0x4000 are never registered
// and repeat in full, while names registered earlier stay reachable.
func TestCompressorMatchesReferenceAcross0x4000(t *testing.T) {
	m := NewResponse(NewQuery(9, "Early.example.ORG", TypeANY, ClassIN), RCodeNoError)
	filler := TXT{Strings: []string{strings.Repeat("x", 250)}}
	for i := 0; len(m.Answers) < 70; i++ { // 70 × ~270 octets crosses 16384
		m.AddAnswer(fmt.Sprintf("t%d.early.example.org", i), ClassIN, 60, filler)
	}
	m.AddAnswer("late.example.net", ClassIN, 60, NS{Host: "ns1.late.example.net"})
	m.AddAnswer("LATE.example.net", ClassIN, 60, CNAME{Target: "t3.EARLY.example.org"})
	m.addAuthority("late.example.net", ClassIN, 60, SOA{MName: "ns1.late.example.net", RName: "early.example.org"})
	wire := mustMatchRef(t, "message crossing 0x4000", m)
	if len(wire) <= 0x4000 {
		t.Fatalf("message is %d octets; the test needs it past 0x4000", len(wire))
	}
	if n := bytes.Count(wire[0x4000:], []byte("\x04late\x07example\x03net\x00")); n != 4 {
		t.Errorf("late.example.net written in full %d times past 0x4000, want 4 (never registered)", n)
	}
	back, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Answers[71].Data.(CNAME).Target; !EqualNamesFold(got, "t3.early.example.org") {
		t.Errorf("pointer to an early name unpacked as %q", got)
	}
}

// TestCompressionFoldsASCIIOnly: DNS folds only A–Z (RFC 4343). Folding
// with Unicode rules made the encoder point the owner éX.example at the
// question ÉX.example, so the record came back under a different name.
func TestCompressionFoldsASCIIOnly(t *testing.T) {
	const question, owner = "ÉX.example", "éX.example"
	m := NewResponse(NewQuery(1, question, TypeA, ClassIN), RCodeNoError)
	m.AddAnswer(owner, ClassIN, 60, A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1})})
	m.AddAnswer("Éx.EXAMPLE", ClassIN, 60, A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 2})})
	wire, err := m.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Answers[0].Name; got != owner {
		t.Errorf("owner %q unpacked as %q", owner, got)
	}
	// ASCII case differences still compress: the second owner is the
	// question under RFC 4343 and comes back in the question's casing.
	if got := back.Answers[1].Name; got != question {
		t.Errorf("owner Éx.EXAMPLE unpacked as %q, want the question %q it points at", got, question)
	}
	if ref, _ := refPack(m); len(ref) >= len(wire) {
		t.Errorf("reference packed %d octets, new encoder %d: the Unicode fold should have compressed more", len(ref), len(wire))
	}
}

func TestEncode0x20BytesOnWireMatchesStringForm(t *testing.T) {
	ids := []ProbeID{0, 1, 0xFFFF, 0x10000, 0x155_1234, 0x0AA_BEEF, MaxProbeID}
	var buf []byte
	for _, name := range domains.Names() {
		for _, id := range ids {
			txid, portIdx := SplitProbeID(id)
			qname, nbits := Encode0x20(name, uint32(portIdx), 9)
			want, err := NewQuery(txid, qname, TypeA, ClassIN).PackBytes()
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendQuery(buf[:0], txid, true, name, TypeA, ClassIN)
			if err != nil {
				t.Fatal(err)
			}
			if n := Encode0x20Bytes(QueryNameWire(got), uint32(portIdx), 9); n != nbits {
				t.Fatalf("%s: wire pass embedded %d bits, string form %d", name, n, nbits)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s id %#x: wire-built query %x, message form %x", name, id, got, want)
			}
			buf = got
		}
	}
}

func TestAppendQueryMatchesMessageForm(t *testing.T) {
	for _, rd := range []bool{true, false} {
		q := NewQuery(0x2A2A, "Com", TypeNS, ClassIN)
		q.Header.RD = rd
		want, err := q.PackBytes()
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendQuery(nil, 0x2A2A, rd, "Com", TypeNS, ClassIN)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendQuery(rd=%v) = %x, %v; message form %x", rd, got, err, want)
		}
		// The ANY survey's query: the same with an OPT record.
		q.AddEDNS(4096)
		if want, err = q.PackBytes(); err != nil {
			t.Fatal(err)
		}
		if got = AppendEDNS(got, 4096); !bytes.Equal(got, want) {
			t.Errorf("AppendEDNS(rd=%v) = %x; message form %x", rd, got, want)
		}
	}
}

// TestPackIntoAllocs: with a warm buffer and Compressor, packing the two
// response shapes the scans provoke by the million touches no heap.
func TestPackIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	answerA := NewResponse(NewQuery(7, "WwW.exAMple.com", TypeA, ClassIN), RCodeNoError)
	answerA.AddAnswer("WwW.exAMple.com", ClassIN, 300, A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1})})
	answerA.AddAnswer("WwW.exAMple.com", ClassIN, 300, A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 2})})
	snoop := NewResponse(NewQuery(3, "com", TypeNS, ClassIN), RCodeNoError)
	snoop.AddAnswer("com", ClassIN, 86000, NS{Host: "ns1.nic.com.example"})
	snoop.AddAnswer("com", ClassIN, 86000, NS{Host: "ns2.nic.com.example"})
	for _, m := range []*Message{answerA, snoop} {
		buf := make([]byte, 0, 512)
		var cmp Compressor
		if _, err := m.PackInto(buf, &cmp); err != nil { // warm the Compressor
			t.Fatal(err)
		}
		allocs := alloctest.Count(200, func() {
			if _, err := m.PackInto(buf, &cmp); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("PackInto of a %s response allocates %d times over 200 packs, want 0", m.Questions[0].Type, allocs)
		}
	}
}

// FuzzAppendNameCompression holds the Compressor to the reference encoder
// on arbitrary ASCII names: the input is cut into names at newlines, the
// first becomes the question and the rest owners and RDATA names of a
// response, and both encoders must produce the same bytes or fail alike.
func FuzzAppendNameCompression(f *testing.F) {
	f.Add("WWW.Example.com\nwww.example.COM\nexample.com.\nmail.example.com")
	f.Add("a..b\na")
	f.Add("com\nns1.nic.com.example\nns2.nic.com.example")
	f.Add(".\n\nx")
	f.Add(strings.Repeat("abcdefg.", 31) + "abcde\nabcdefg.abcde")
	f.Fuzz(func(t *testing.T, input string) {
		for i := 0; i < len(input); i++ {
			if input[i] >= 0x80 {
				t.Skip("the reference folds case by Unicode rules; only ASCII names are comparable")
			}
		}
		names := strings.Split(input, "\n")
		if len(names) > 24 {
			names = names[:24]
		}
		for _, n := range names {
			if strings.HasSuffix(n, "..") {
				t.Skip("see TestAppendNameDoubleDotAlwaysFails")
			}
		}
		m := NewResponse(NewQuery(1, names[0], TypeA, ClassIN), RCodeNoError)
		for i, n := range names[1:] {
			switch i % 4 {
			case 0:
				m.AddAnswer(n, ClassIN, 60, CNAME{Target: names[i]})
			case 1:
				m.AddAnswer(names[i], ClassIN, 60, MX{Preference: 1, Host: n})
			case 2:
				m.addAuthority(n, ClassIN, 60, SOA{MName: names[i], RName: n})
			default:
				m.Additional = append(m.Additional, ResourceRecord{Name: n, Class: ClassIN, TTL: 60, Data: TXT{Strings: []string{n}}})
			}
		}
		mustMatchRef(t, "fuzzed names", m)
	})
}
