package wildnet

import (
	"bytes"
	"context"
	"net/netip"
	"testing"

	"goingwild/internal/dnswire"
)

// exchangeOver sends one datagram to u through a lossless transport and
// returns the response wires.
func exchangeOver(t *testing.T, w *World, u uint32, payload []byte) [][]byte {
	t.Helper()
	tr := NewMemTransport(w, VantagePrimary)
	defer tr.Close()
	var got [][]byte
	tr.SetReceiver(func(_ netip.Addr, _, _ uint16, resp []byte) {
		got = append(got, append([]byte(nil), resp...))
	})
	if err := sendOne(context.Background(), tr, w.Addr(u), 53, 40000, payload); err != nil {
		t.Fatal(err)
	}
	return got
}

func losslessWorld(t *testing.T, order uint) *World {
	t.Helper()
	cfg := DefaultConfig(order)
	cfg.Loss = 0
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestHandlerIgnoresResponses: a datagram that is itself a response
// (QR=1) draws nothing — from a resolver, from the trusted
// infrastructure, or from a closed resolver. A server that answered
// responses would bounce them between reflectors forever, which is why
// RFC 1035 servers do not and why a model of DDoS amplifiers must not.
func TestHandlerIgnoresResponses(t *testing.T) {
	w := losslessWorld(t, 16)
	u, _ := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Manip == ManipHonest
	})
	for _, dst := range []uint32{u, w.infra.addrOf(RoleTrustedDNS, 0), w.infra.addrOf(RoleAuthNS, 0)} {
		q := query("chase.com", dnswire.TypeA, dnswire.ClassIN)
		payload, err := q.PackBytes()
		if err != nil {
			t.Fatal(err)
		}
		if got := exchangeOver(t, w, dst, payload); len(got) != 1 {
			t.Fatalf("%#x: query drew %d responses, want 1", dst, len(got))
		}
		if got := handle(w, VantagePrimary, 4000, dst, q, At(0)); len(got) != 1 {
			t.Fatalf("%#x: handle(query) = %d responses, want 1", dst, len(got))
		}
		// The same datagram with QR set — and the response it drew, fed
		// straight back — vanish.
		q.Header.QR = true
		payload[2] |= 0x80
		if got := exchangeOver(t, w, dst, payload); len(got) != 0 {
			t.Errorf("%#x: QR=1 datagram drew %d responses", dst, len(got))
		}
		if got := handle(w, VantagePrimary, 4000, dst, q, At(0)); len(got) != 0 {
			t.Errorf("%#x: handle(QR=1) = %d responses", dst, len(got))
		}
	}
	q := query("chase.com", dnswire.TypeA, dnswire.ClassIN)
	if got := w.HandleClientDNS(u, q, At(0)); len(got) == 0 {
		t.Fatal("closed resolver ignored a query")
	}
	q.Header.QR = true
	if got := w.HandleClientDNS(u, q, At(0)); len(got) != 0 {
		t.Errorf("closed resolver answered a response with %d responses", len(got))
	}
}

// TestHandlerAcceptSet pins which datagrams the wire handler takes for a
// query: View.Reset succeeds, QR=0, QDCOUNT=1, and the three record
// sections walk structurally. The Message-building handler accepted what
// UnpackInto accepted, which differs in three rows (marked): it answered
// the first of several questions, it answered responses, and it refused
// a query over the RDATA of a record it never looked at.
func TestHandlerAcceptSet(t *testing.T) {
	w := losslessWorld(t, 16)
	u, _ := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Manip == ManipHonest && p.Country == "US"
	})
	plain, err := dnswire.AppendQuery(nil, 7, true, "ChAsE.com", dnswire.TypeA, dnswire.ClassIN)
	if err != nil {
		t.Fatal(err)
	}
	with := func(edit func(b []byte) []byte) []byte { return edit(append([]byte(nil), plain...)) }
	ednsQ := dnswire.NewQuery(7, "ChAsE.com", dnswire.TypeA, dnswire.ClassIN)
	ednsQ.AddEDNS(4096)
	edns, err := ednsQ.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	question := plain[12:]

	cases := []struct {
		name     string
		datagram []byte
		answered bool
	}{
		{"well-formed query", plain, true},
		{"query with an OPT record", edns, true},
		{"empty datagram", nil, false},
		{"short header", plain[:11], false},
		{"header only, QDCOUNT 1", plain[:12], false},
		{"inflated ANCOUNT", with(func(b []byte) []byte { b[6], b[7] = 0x03, 0xE8; return b }), false},
		{"inflated ARCOUNT", with(func(b []byte) []byte { b[11] = 1; return b }), false},
		{"pointer loop in the question", with(func(b []byte) []byte {
			return append(b[:12], 0xC0, 12, 0, 1, 0, 1)
		}), false},
		{"forward pointer in the question", with(func(b []byte) []byte {
			return append(b[:12], 3, 'w', 'w', 'w', 0xC0, 40, 0, 1, 0, 1)
		}), false},
		{"question cut inside its name", plain[:16], false},
		{"truncated OPT record", edns[:len(edns)-3], false},
		{"QDCOUNT 0", with(func(b []byte) []byte { b[5] = 0; return b[:12] }), false},
		{"QDCOUNT 2 (was: first question answered)", with(func(b []byte) []byte {
			b[5] = 2
			return append(b, question...)
		}), false},
		{"QR=1 (was: answered)", with(func(b []byte) []byte { b[2] |= 0x80; return b }), false},
		{"record with RDATA Unpack rejects (was: dropped)", with(func(b []byte) []byte {
			b[11] = 1 // one additional record: an A with three octets of RDATA
			return append(b, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 3, 1, 2, 3)
		}), true},
		{"trailing garbage after the question", with(func(b []byte) []byte { return append(b, 0xDE, 0xAD) }), true},
	}
	x := new(exchange)
	for _, tc := range cases {
		got := exchangeOver(t, w, u, tc.datagram)
		if (len(got) > 0) != tc.answered {
			t.Errorf("%s: %d responses, want answered = %v", tc.name, len(got), tc.answered)
		}
		direct := w.handleDNS(x, VantagePrimary, 40000, u, tc.datagram, At(0), faultCtx{})
		if len(direct) != len(got) {
			t.Errorf("%s: handler emitted %d responses, transport delivered %d", tc.name, len(direct), len(got))
		}
		if tc.answered && len(got) == 1 && !bytes.Equal(got[0][12:12+len(question)], question) {
			t.Errorf("%s: question not echoed: %x", tc.name, got[0])
		}
	}

	// A question name that ends in a compression pointer is well-formed
	// (the only backward target a query offers is a zero octet of its own
	// header — the root). It is answered, echoed uncompressed, with the
	// bytes the tree adapter produces for the same query.
	compressed := append(append([]byte(nil), plain[:12]...), 5, 'C', 'h', 'a', 's', 'E', 3, 'c', 'o', 'm', 0xC0, 11, 0, 1, 0, 1)
	got := exchangeOver(t, w, u, compressed)
	if len(got) != 1 {
		t.Fatalf("compressed question name: %d responses, want 1", len(got))
	}
	qm, err := dnswire.Unpack(compressed)
	if err != nil {
		t.Fatal(err)
	}
	adapted := handle(w, VantagePrimary, 40000, u, qm, At(0))
	if len(adapted) != 1 {
		t.Fatalf("adapter: %d responses", len(adapted))
	}
	want, err := adapted[0].Msg.PackBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], want) {
		t.Errorf("compressed question name:\n  wire    %x\n  adapter %x", got[0], want)
	}
	if name := adapted[0].Msg.Question().Name; name != "ChasE.com" || len(adapted[0].Msg.Answers) == 0 {
		t.Errorf("compressed question name answered as %q with %d answers", name, len(adapted[0].Msg.Answers))
	}
}
