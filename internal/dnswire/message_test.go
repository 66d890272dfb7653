package dnswire

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// addAuthority appends an authority-section record.
func (m *Message) addAuthority(name string, class Class, ttl uint32, data RData) {
	m.Authority = append(m.Authority, ResourceRecord{Name: name, Class: class, TTL: ttl, Data: data})
}

// joined returns the concatenation of all strings, the form version
// fingerprinting matches against.
func (t TXT) joined() string { return strings.Join(t.Strings, "") }

func mustPack(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := m.PackBytes()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	return b
}

func TestPackUnpackQuery(t *testing.T) {
	q := NewQuery(0xBEEF, "r1.c0a80101.scan.example.edu", TypeA, ClassIN)
	wire := mustPack(t, q)
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if got.Header.ID != 0xBEEF || got.Header.QR || !got.Header.RD {
		t.Errorf("header mismatch: %+v", got.Header)
	}
	if len(got.Questions) != 1 {
		t.Fatalf("want 1 question, got %d", len(got.Questions))
	}
	if got.Questions[0].Name != "r1.c0a80101.scan.example.edu" {
		t.Errorf("question name = %q", got.Questions[0].Name)
	}
	if got.Questions[0].Type != TypeA || got.Questions[0].Class != ClassIN {
		t.Errorf("question type/class = %v/%v", got.Questions[0].Type, got.Questions[0].Class)
	}
}

func TestPackUnpackAllRecordTypes(t *testing.T) {
	q := NewQuery(7, "example.com", TypeANY, ClassIN)
	resp := NewResponse(q, RCodeNoError)
	resp.AddAnswer("example.com", ClassIN, 300, A{Addr: netip.MustParseAddr("93.184.216.34")})
	resp.AddAnswer("example.com", ClassIN, 300, AAAA{Addr: netip.MustParseAddr("2606:2800:220:1::1")})
	resp.AddAnswer("example.com", ClassIN, 300, NS{Host: "ns1.example.com"})
	resp.AddAnswer("www.example.com", ClassIN, 300, CNAME{Target: "example.com"})
	resp.AddAnswer("34.216.184.93.in-addr.arpa", ClassIN, 300, PTR{Target: "example.com"})
	resp.AddAnswer("example.com", ClassIN, 300, MX{Preference: 10, Host: "mail.example.com"})
	resp.AddAnswer("example.com", ClassIN, 300, TXT{Strings: []string{"v=spf1 -all", "second"}})
	resp.addAuthority("example.com", ClassIN, 300, SOA{
		MName: "ns1.example.com", RName: "hostmaster.example.com",
		Serial: 2015010101, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 86400,
	})
	wire := mustPack(t, resp)
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if len(got.Answers) != 7 {
		t.Fatalf("want 7 answers, got %d", len(got.Answers))
	}
	if a := got.Answers[0].Data.(A); a.Addr != netip.MustParseAddr("93.184.216.34") {
		t.Errorf("A = %v", a.Addr)
	}
	if a := got.Answers[1].Data.(AAAA); a.Addr != netip.MustParseAddr("2606:2800:220:1::1") {
		t.Errorf("AAAA = %v", a.Addr)
	}
	if ns := got.Answers[2].Data.(NS); ns.Host != "ns1.example.com" {
		t.Errorf("NS = %q", ns.Host)
	}
	if c := got.Answers[3].Data.(CNAME); c.Target != "example.com" {
		t.Errorf("CNAME = %q", c.Target)
	}
	if p := got.Answers[4].Data.(PTR); p.Target != "example.com" {
		t.Errorf("PTR = %q", p.Target)
	}
	if mx := got.Answers[5].Data.(MX); mx.Preference != 10 || mx.Host != "mail.example.com" {
		t.Errorf("MX = %+v", mx)
	}
	if txt := got.Answers[6].Data.(TXT); txt.joined() != "v=spf1 -allsecond" {
		t.Errorf("TXT = %+v", txt)
	}
	soa := got.Authority[0].Data.(SOA)
	if soa.Serial != 2015010101 || soa.MName != "ns1.example.com" {
		t.Errorf("SOA = %+v", soa)
	}
}

func TestNameCompressionShrinksMessage(t *testing.T) {
	q := NewQuery(1, "a.very.long.subdomain.of.example.com", TypeA, ClassIN)
	resp := NewResponse(q, RCodeNoError)
	for i := 0; i < 5; i++ {
		resp.AddAnswer("a.very.long.subdomain.of.example.com", ClassIN, 60,
			A{Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)})})
	}
	wire := mustPack(t, resp)
	// Uncompressed, each answer would repeat the 38-octet name; with
	// compression each answer name is a 2-octet pointer.
	if len(wire) > 12+44+5*(2+10+4)+16 {
		t.Errorf("message not compressed: %d bytes", len(wire))
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	for _, rr := range got.Answers {
		if rr.Name != "a.very.long.subdomain.of.example.com" {
			t.Errorf("decompressed name = %q", rr.Name)
		}
	}
}

func TestUnpackRejectsMalformed(t *testing.T) {
	valid := mustPack(t, NewQuery(9, "example.com", TypeA, ClassIN))
	cases := map[string][]byte{
		"empty":           {},
		"short header":    valid[:8],
		"truncated name":  valid[:14],
		"pointer loop":    {0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1},
		"forward pointer": {0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x20, 0, 1, 0, 1},
		"reserved label":  {0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x80, 0x01, 0, 1, 0, 1},
		"count overflow":  {0, 1, 0, 0, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0},
		"rdata overrun": func() []byte {
			m := NewQuery(9, "x.com", TypeA, ClassIN)
			resp := NewResponse(m, RCodeNoError)
			resp.AddAnswer("x.com", ClassIN, 1, A{Addr: netip.AddrFrom4([4]byte{1, 2, 3, 4})})
			b := mustPack(t, resp)
			return b[:len(b)-2]
		}(),
	}
	for name, wire := range cases {
		if _, err := Unpack(wire); err == nil {
			t.Errorf("%s: Unpack accepted malformed input", name)
		}
	}
}

func TestUnpackToleratesUnknownType(t *testing.T) {
	q := NewQuery(2, "x.example", Type(99), ClassIN)
	resp := NewResponse(q, RCodeNoError)
	resp.AddAnswer("x.example", ClassIN, 5, RawRData{RType: Type(99), Data: []byte{1, 2, 3}})
	wire := mustPack(t, resp)
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	raw, ok := got.Answers[0].Data.(RawRData)
	if !ok || !bytes.Equal(raw.Data, []byte{1, 2, 3}) {
		t.Errorf("raw rdata = %+v", got.Answers[0].Data)
	}
}

func TestCanonicalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Example.COM.", "example.com"},
		{"example.com", "example.com"},
		{".", ""},
		{"", ""},
		{"WwW.PayPal.CoM", "www.paypal.com"},
		// Only ASCII folds (RFC 4343); other octets pass through as they are.
		{"ÉX.Example", "Éx.example"},
		{"A\xffB.example", "a\xffb.example"},
		{"example.com..", "example.com."},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
		if got := AppendCanonicalName([]byte("kept|"), []byte(c.in)); string(got) != "kept|"+c.want {
			t.Errorf("AppendCanonicalName(%q) = %q, want %q behind the prefix", c.in, got, c.want)
		}
	}
}

func TestEqualNamesFold(t *testing.T) {
	if !EqualNamesFold("ExAmple.COM.", "example.com") {
		t.Error("case-folded names not equal")
	}
	if EqualNamesFold("example.com", "example.org") {
		t.Error("different names equal")
	}
	if EqualNamesFold("ÉX.example", "éX.example") {
		t.Error("names differing in a non-ASCII octet equal: DNS folds A–Z only")
	}
	if !EqualNamesFold("ÉX.example.", "Éx.EXAMPLE") {
		t.Error("ASCII case difference beside a non-ASCII octet not folded")
	}
}

// randomMessage builds a structurally valid random message for round-trip
// property testing.
func randomMessage(r *rand.Rand) *Message {
	name := func() string {
		labels := make([]string, 1+r.Intn(4))
		for i := range labels {
			n := 1 + r.Intn(10)
			b := make([]byte, n)
			for j := range b {
				b[j] = "abcdefghijklmnopqrstuvwxyz0123456789-"[r.Intn(37)]
			}
			labels[i] = string(b)
		}
		return strings.Join(labels, ".")
	}
	m := NewQuery(uint16(r.Uint32()), name(), TypeA, ClassIN)
	m.Header.QR = r.Intn(2) == 0
	m.Header.RCode = RCode(r.Intn(6))
	for i := r.Intn(4); i > 0; i-- {
		switch r.Intn(5) {
		case 0:
			m.AddAnswer(name(), ClassIN, r.Uint32()%86400,
				A{Addr: netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})})
		case 1:
			m.AddAnswer(name(), ClassIN, r.Uint32()%86400, NS{Host: name()})
		case 2:
			m.AddAnswer(name(), ClassIN, r.Uint32()%86400, CNAME{Target: name()})
		case 3:
			m.AddAnswer(name(), ClassIN, r.Uint32()%86400, TXT{Strings: []string{name()}})
		default:
			m.AddAnswer(name(), ClassIN, r.Uint32()%86400, MX{Preference: uint16(r.Uint32()), Host: name()})
		}
	}
	return m
}

func TestPackUnpackRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r.Seed(seed)
		m := randomMessage(r)
		wire, err := m.PackBytes()
		if err != nil {
			t.Logf("pack: %v", err)
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			t.Logf("unpack: %v", err)
			return false
		}
		if !reflect.DeepEqual(m.Header, got.Header) {
			t.Logf("header: %+v vs %+v", m.Header, got.Header)
			return false
		}
		if !reflect.DeepEqual(m.Questions, got.Questions) {
			t.Logf("questions: %+v vs %+v", m.Questions, got.Questions)
			return false
		}
		if !reflect.DeepEqual(m.Answers, got.Answers) {
			t.Logf("answers: %+v vs %+v", m.Answers, got.Answers)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackNeverPanicsOnFuzzInput(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	base := mustPack(t, NewQuery(3, "fuzz.example.com", TypeA, ClassIN))
	for i := 0; i < 5000; i++ {
		b := append([]byte(nil), base...)
		for j := r.Intn(6); j >= 0; j-- {
			b[r.Intn(len(b))] ^= byte(1 << r.Intn(8))
		}
		Unpack(b) // must not panic; errors are fine
	}
}
