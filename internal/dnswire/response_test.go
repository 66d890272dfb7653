package dnswire

import (
	"bytes"
	"errors"
	"net/netip"
	"strings"
	"testing"

	"goingwild/internal/alloctest"
)

// builderCase is one response, described once and built twice: as a
// Message tree packed by PackInto, and through the ResponseBuilder.
type builderCase struct {
	name  string // question name as the query carries it
	qtype Type
	rd    bool
	rcode RCode
	aa    bool
	// records: "A" adds an address, "NS:<host>" an NS record, "AUTH"
	// switches to the authority section, "SOA"/"TXT"/"PTR" the generic
	// appender's types.
	records []string
}

func (c builderCase) query(t testing.TB, id uint16) []byte {
	t.Helper()
	q, err := AppendQuery(nil, id, c.rd, c.name, c.qtype, ClassIN)
	if err != nil {
		t.Fatalf("query %q: %v", c.name, err)
	}
	return q
}

// tree packs the case the way the Message-building resolvers did.
func (c builderCase) tree(t testing.TB, q *Message) ([]byte, error) {
	t.Helper()
	resp := NewResponse(q, c.rcode)
	resp.Header.AA = c.aa
	owner, cn := q.Questions[0].Name, CanonicalName(q.Questions[0].Name)
	add := resp.AddAnswer
	for i, r := range c.records {
		switch {
		case r == "AUTH":
			add = resp.addAuthority
		case r == "A":
			add(owner, ClassIN, 300, A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})})
		case strings.HasPrefix(r, "NS:"):
			add(owner, ClassIN, 300, NS{Host: strings.ReplaceAll(r[3:], "$", cn)})
		case r == "SOA":
			add(owner, ClassIN, 300, SOA{MName: "ns1." + cn, RName: "hostmaster." + cn, Serial: 7})
		case r == "TXT":
			add(owner, ClassCH, 0, TXT{Strings: []string{strings.Repeat("x", 300)}})
		case r == "PTR":
			add(owner, ClassIN, 3600, PTR{Target: "host-1-2-3-4.pool.example"})
		}
	}
	return resp.PackInto(nil, new(Compressor))
}

// build appends the case to b, answering the wire query.
func (c builderCase) build(t testing.TB, b *ResponseBuilder, query []byte) (off, end int, err error) {
	t.Helper()
	var v View
	if err := v.Reset(query); err != nil {
		t.Fatalf("view of %q: %v", c.name, err)
	}
	cn := CanonicalName(string(v.QName()))
	b.Begin(&v, cn, c.rcode)
	if c.aa {
		b.SetAA()
	}
	for i, r := range c.records {
		switch {
		case r == "AUTH":
			b.Authority()
		case r == "A":
			b.A(300, 192<<24|2<<8|uint32(i))
		case strings.HasPrefix(r, "NS:"):
			b.NS(300, strings.ReplaceAll(r[3:], "$", cn))
		case r == "SOA":
			b.RR(ClassIN, 300, SOA{MName: "ns1." + cn, RName: "hostmaster." + cn, Serial: 7})
		case r == "TXT":
			b.RR(ClassCH, 0, TXT{Strings: []string{strings.Repeat("x", 300)}})
		case r == "PTR":
			b.RR(ClassIN, 3600, PTR{Target: "host-1-2-3-4.pool.example"})
		}
	}
	return b.Finish()
}

var builderCases = []builderCase{
	{name: "chase.com", qtype: TypeA, rd: true, records: []string{"A"}},
	{name: "WwW.ChAsE.cOm", qtype: TypeA, rd: true, records: []string{"A", "A", "A", "A"}},
	{name: "refused.example", qtype: TypeA, rd: true, rcode: RCodeRefused},
	{name: "nx.example", qtype: TypeA, rcode: RCodeNXDomain, aa: true},
	{name: "com", qtype: TypeNS, records: []string{"NS:ns1.nic.com.example", "NS:ns2.nic.com.example"}},
	{name: "Co.Uk", qtype: TypeNS, records: []string{"NS:ns1.nic.co-uk.example", "NS:ns2.nic.co-uk.example"}},
	{name: "ExAmple.ORG", qtype: TypeNS, rd: true, records: []string{"NS:ns1.$"}},
	{name: "nsonly.example", qtype: TypeA, rd: true, records: []string{"AUTH", "NS:ns1.$"}},
	{name: "Any.Example", qtype: TypeANY, rd: true, records: []string{"A", "A", "NS:ns1.$", "NS:ns2.$", "SOA", "TXT"}},
	{name: "4.3.2.1.in-addr.arpa", qtype: TypePTR, rd: true, records: []string{"PTR"}},
	{name: "", qtype: TypeA, rd: true, records: []string{"A", "NS:a.root-servers.example"}},
	{name: "version.bind", qtype: TypeTXT, rd: true, records: []string{"TXT"}},
}

// TestResponseBuilderMatchesPackInto: for every case the builder writes
// the bytes PackInto writes for the equivalent Message — header flags,
// echoed question in the query's casing, owner pointers, RDATA name
// compression — and does so at any offset of a shared arena.
func TestResponseBuilderMatchesPackInto(t *testing.T) {
	var b ResponseBuilder
	type span struct {
		off, end int
		want     []byte
	}
	var spans []span
	for i, c := range builderCases {
		query := c.query(t, uint16(0x1000+i))
		if i%2 == 1 {
			query[2] |= 4 << 3 // opcode 4 (NOTIFY): any opcode is echoed
		}
		q, err := Unpack(query)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.tree(t, q)
		if err != nil {
			t.Fatalf("%q: tree encoder: %v", c.name, err)
		}
		off, end, err := c.build(t, &b, query)
		if err != nil {
			t.Fatalf("%q: builder: %v", c.name, err)
		}
		if i > 0 && off == 0 {
			t.Fatalf("%q: message %d starts at arena offset 0; the arena is not shared", c.name, i)
		}
		spans = append(spans, span{off, end, want})
	}
	// Compare after the arena has stopped moving.
	for i, s := range spans {
		if got := b.Message(s.off, s.end); !bytes.Equal(got, s.want) {
			t.Errorf("%q:\n  builder %x\n  tree    %x", builderCases[i].name, got, s.want)
		}
	}
	b.Reset()
	if off, _, _ := builderCases[0].build(t, &b, builderCases[0].query(t, 1)); off != 0 {
		t.Errorf("first message after Reset starts at %d", off)
	}
}

// TestResponseBuilderErrors: a response PackInto refuses is refused by
// the builder too and leaves nothing behind in the arena.
func TestResponseBuilderErrors(t *testing.T) {
	var b ResponseBuilder
	keep := builderCases[0]
	off0, end0, err := keep.build(t, &b, keep.query(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]byte(nil), b.Message(off0, end0)...)

	long := strings.Repeat("a234567890.", 22) + "examplexyz" // 252 octets: fine alone, too long behind "ns1."
	for _, c := range []builderCase{
		{name: long, qtype: TypeNS, rd: true, records: []string{"NS:ns1.$"}},
		{name: long, qtype: TypeANY, rd: true, records: []string{"A", "SOA"}},
	} {
		query := c.query(t, 2)
		q, err := Unpack(query)
		if err != nil {
			t.Fatal(err)
		}
		_, wantErr := c.tree(t, q)
		off, end, err := c.build(t, &b, query)
		if wantErr == nil || !errors.Is(err, wantErr) {
			t.Errorf("builder error %v, tree encoder error %v", err, wantErr)
		}
		if off != end0 || end != end0 {
			t.Errorf("failed message left span [%d, %d), want empty at %d", off, end, end0)
		}
	}
	if got := b.Message(off0, end0); !bytes.Equal(got, kept) {
		t.Errorf("earlier message changed: %x -> %x", kept, got)
	}
}

// TestTruncateResponseMatchesTCPack: the in-place TC cut is the packed
// Message{Header(+TC), Questions} of the full response.
func TestTruncateResponseMatchesTCPack(t *testing.T) {
	for i, c := range builderCases {
		var b ResponseBuilder
		off, end, err := c.build(t, &b, c.query(t, uint16(i)))
		if err != nil {
			t.Fatal(err)
		}
		full, err := Unpack(b.Message(off, end))
		if err != nil {
			t.Fatal(err)
		}
		cut := Message{Header: full.Header, Questions: full.Questions}
		cut.Header.TC = true
		want, err := cut.PackInto(nil, new(Compressor))
		if err != nil {
			t.Fatal(err)
		}
		if got := TruncateResponse(b.Message(off, end)); !bytes.Equal(got, want) {
			t.Errorf("%q:\n  cut  %x\n  want %x", c.name, got, want)
		}
	}
}

// TestResponseBuilderAllocs: once the arena and the Compressor have
// grown, answering with the typed appenders allocates nothing.
func TestResponseBuilderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	var b ResponseBuilder
	var v View
	c := builderCases[5] // snoop shape: two compressed NS records
	if err := v.Reset(c.query(t, 9)); err != nil {
		t.Fatal(err)
	}
	answer := func() {
		b.Reset()
		for i := 0; i < 2; i++ { // two racing responses in one arena
			b.Begin(&v, "co.uk", RCodeNoError)
			b.A(300, 0xC0000201)
			b.NS(300, "ns1.nic.co-uk.example")
			b.NS(300, "ns2.nic.co-uk.example")
			if _, _, err := b.Finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	answer()
	if allocs := alloctest.Count(200, answer); allocs != 0 {
		t.Fatalf("building two responses allocates %d times over 200 runs, want 0", allocs)
	}
	off, end, _ := b.Finish() // the last response: one A and two NS records
	canned, err := CanAnswers(b.Message(off, end))
	if err != nil {
		t.Fatal(err)
	}
	replay := func() {
		b.Reset()
		b.Begin(&v, "co.uk", RCodeNoError)
		b.AppendCanned(&canned, 300)
		if _, _, err := b.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := alloctest.Count(200, replay); allocs != 0 {
		t.Fatalf("replaying canned records allocates %d times over 200 runs, want 0", allocs)
	}
}

// TestAppendCannedMatchesRecords: records cut from one response and
// replayed behind the same question in another casing, with another ID
// and TTL, are the bytes the NS appender writes there; a question of
// another length is refused and leaves nothing in the arena.
func TestAppendCannedMatchesRecords(t *testing.T) {
	for _, c := range builderCases[4:6] { // the two snoop-shaped NS answers
		lower := c
		lower.name = strings.ToLower(c.name)
		var b ResponseBuilder
		off, end, err := lower.build(t, &b, lower.query(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		canned, err := CanAnswers(b.Message(off, end))
		if err != nil {
			t.Fatalf("%q: CanAnswers: %v", c.name, err)
		}

		var v View
		if err := v.Reset(c.query(t, 0x4242)); err != nil {
			t.Fatal(err)
		}
		cn := CanonicalName(c.name)
		b.Reset()
		b.Begin(&v, cn, RCodeNoError)
		for _, r := range c.records {
			b.NS(4711, strings.TrimPrefix(r, "NS:"))
		}
		off, end, _ = b.Finish()
		want := append([]byte(nil), b.Message(off, end)...)
		b.Begin(&v, cn, RCodeNoError)
		b.AppendCanned(&canned, 4711)
		off, end, err = b.Finish()
		if got := b.Message(off, end); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%q: canned %x (%v)\n  records %x", c.name, got, err, want)
		}

		var other View
		if err := other.Reset(builderCases[0].query(t, 3)); err != nil {
			t.Fatal(err)
		}
		b.Begin(&other, "chase.com", RCodeNoError)
		b.AppendCanned(&canned, 1)
		if off, end, err := b.Finish(); !errors.Is(err, errCannedShape) || off != end {
			t.Errorf("%q behind chase.com: span [%d, %d), err %v; want refused", c.name, off, end, err)
		}
	}
	if _, err := CanAnswers([]byte{1, 2, 3}); err == nil {
		t.Error("CanAnswers accepted a three-byte message")
	}
}

// TestViewQueryAccessors: the accessors the simulated resolver reads a
// query through agree with a full unpack, and EDNSPayloadSize reports a
// record section that does not walk.
func TestViewQueryAccessors(t *testing.T) {
	for _, size := range []uint16{0, 512, 1232, 4096} {
		q := NewQuery(7, "chase.com", TypeANY, ClassIN)
		q.Header.RD = size%1024 == 0
		if size > 0 {
			q.AddEDNS(size)
		}
		wire, err := q.PackBytes()
		if err != nil {
			t.Fatal(err)
		}
		var v View
		if err := v.Reset(wire); err != nil {
			t.Fatal(err)
		}
		if v.RD() != q.Header.RD {
			t.Errorf("size %d: RD = %v, want %v", size, v.RD(), q.Header.RD)
		}
		got, ok, err := v.EDNSPayloadSize()
		if err != nil || got != size || ok != (size > 0) {
			t.Errorf("size %d: EDNSPayloadSize = %d, %v, %v", size, got, ok, err)
		}
		if size == 0 {
			continue
		}
		// Cut into the OPT record: the question still parses, the
		// additional section no longer walks.
		if err := v.Reset(wire[:len(wire)-3]); err != nil {
			t.Fatalf("size %d: truncated OPT fails Reset: %v", size, err)
		}
		if _, _, err := v.EDNSPayloadSize(); err == nil {
			t.Errorf("size %d: truncated OPT record walks", size)
		}
	}
	// An OPT record outside the additional section is not EDNS, and only
	// the first one in it counts.
	m := NewQuery(1, "a.example", TypeA, ClassIN)
	m.Answers = append(m.Answers, ResourceRecord{Class: 9999, Data: OPT{}})
	m.AddEDNS(1400)
	m.AddEDNS(4096)
	wire, err := m.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := v.Reset(wire); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := v.EDNSPayloadSize(); err != nil || !ok || got != 1400 {
		t.Errorf("EDNSPayloadSize = %d, %v, %v; want 1400 from the first additional OPT", got, ok, err)
	}
}

// rawQuery is an A query whose question carries labels exactly as given,
// a literal dot inside one included, which AppendQuery cannot write.
func rawQuery(labels ...string) []byte {
	q := []byte{0x12, 0x34, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0}
	for _, l := range labels {
		q = append(append(q, byte(len(l))), l...)
	}
	return append(q, 0, 0, 1, 0, 1)
}

// questionPaths writes the question name of q for cn both ways Begin can,
// behind a 12-byte header, and returns each path's bytes and Compressor
// entries; echoed reports whether Begin takes the echo path.
func questionPaths(q *View, cn string) (echoed bool, echo, enc *ResponseBuilder) {
	enc = &ResponseBuilder{buf: make([]byte, 12)}
	enc.encodeQuestion(q, cn)
	echo = &ResponseBuilder{buf: make([]byte, 12)}
	if echoed = q.counts[0] > 0 && echoesName(q.msg[12:], cn); echoed {
		echo.echoQuestion(q.msg[12:12+len(cn)+2], cn)
	}
	return echoed, echo, enc
}

// TestBeginEchoMatchesEncode: a question Begin echoes by copy is written
// byte for byte as encoding its canonical name and copying the query's
// casing back would write it, with the same Compressor entries — so the
// records behind it compress identically — and a question the echo test
// refuses (a label holding a literal dot, the root, a name too long to
// encode, a name that is not the question's) takes the encode path.
func TestBeginEchoMatchesEncode(t *testing.T) {
	long := strings.Repeat(strings.Repeat("x", 50)+".", 4) + strings.Repeat("w", 49)
	l63 := strings.Repeat("y", 63)
	for _, c := range []struct {
		query []byte
		cn    string // "" with echo set: CanonicalName of the question
		echo  bool
	}{
		{query: mustQuery(t, "chase.com"), echo: true},
		{query: mustQuery(t, "ChAsE.CoM"), echo: true},
		{query: mustQuery(t, "WWW.Example.co.UK."), echo: true},
		{query: mustQuery(t, "x1-Y2_z3.A"), echo: true},
		{query: mustQuery(t, long), echo: true}, // 253 octets of text, 255 on the wire
		{query: rawQuery("a.b", "com"), cn: "a.b.com"},
		{query: rawQuery("a", "b.com"), cn: "a.b.com"},
		{query: rawQuery(), cn: ""},
		{query: rawQuery(l63, l63, l63, l63), cn: l63 + "." + l63 + "." + l63 + "." + l63}, // 255 octets of text
		{query: rawQuery("chase", "com"), cn: "chase.com", echo: true},
		{query: mustQuery(t, "chase.com"), cn: "chase.co"},
		{query: mustQuery(t, "chase.com"), cn: "Chase.com"},
		{query: mustQuery(t, "chase.com"), cn: "chase.com.org"},
	} {
		var v View
		if err := v.Reset(c.query); err != nil {
			t.Fatalf("%x: %v", c.query, err)
		}
		cn := c.cn
		if c.echo {
			cn = CanonicalName(string(v.QName()))
		}
		echoed, echo, enc := questionPaths(&v, cn)
		if echoed != c.echo {
			t.Errorf("%q for question %q: echoed %v, want %v", cn, v.QName(), echoed, c.echo)
			continue
		}
		if !echoed {
			continue
		}
		if !bytes.Equal(echo.buf, enc.buf) || echo.err != nil || enc.err != nil {
			t.Errorf("%q: echo %x (%v), encode %x (%v)", cn, echo.buf, echo.err, enc.buf, enc.err)
		}
		if len(echo.cmp.entries) != len(enc.cmp.entries) {
			t.Errorf("%q: echo registers %v, encode %v", cn, echo.cmp.entries, enc.cmp.entries)
			continue
		}
		for i, e := range echo.cmp.entries {
			if e != enc.cmp.entries[i] {
				t.Errorf("%q: entry %d echo %v, encode %v", cn, i, e, enc.cmp.entries[i])
			}
		}
	}
}

func mustQuery(t *testing.T, name string) []byte {
	t.Helper()
	q, err := AppendQuery(nil, 0x1234, true, name, TypeA, ClassIN)
	if err != nil {
		t.Fatalf("query %q: %v", name, err)
	}
	return q
}
