package wildnet

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
)

// sendOne dispatches one datagram as a batch of one — the form a single
// exchange takes on the wire. It takes the concrete transport so the
// one-probe array stays on the caller's stack and the allocation tests
// measure the transport alone.
func sendOne(ctx context.Context, tr *MemTransport, dst netip.Addr, dstPort, srcPort uint16, payload []byte) error {
	_, err := tr.SendBatch(ctx, []Probe{{Dst: dst, DstPort: dstPort, SrcPort: srcPort, Payload: payload}})
	return err
}

func TestMemTransportRoundTrip(t *testing.T) {
	w := testWorld(t, 16)
	u, _ := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Manip == ManipHonest && !p.MisSourced
	})
	tr := NewMemTransport(w, VantagePrimary)
	defer tr.Close()
	var got []*dnswire.Message
	tr.SetReceiver(func(src netip.Addr, srcPort, dstPort uint16, payload []byte) {
		m, err := dnswire.Unpack(payload)
		if err != nil {
			t.Errorf("bad response: %v", err)
			return
		}
		got = append(got, m)
	})
	q := dnswire.NewQuery(99, domains.GroundTruth, dnswire.TypeA, dnswire.ClassIN)
	wire, _ := q.PackBytes()
	// Loss is 0.2% and drawn per (packet, simulated minute), so a bare
	// retransmission shares the original's fate; advance the clock a
	// minute between attempts to redraw.
	for i := 0; i < 10 && len(got) == 0; i++ {
		tr.SetTime(Time{Minute: i})
		if err := sendOne(context.Background(), tr, w.Addr(u), 53, 40000, wire); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) == 0 {
		t.Fatal("no response through mem transport")
	}
	if got[0].Header.ID != 99 || len(got[0].Answers) == 0 {
		t.Errorf("response = %v", got[0])
	}
	// A nil receiver uninstalls: the exchange that answered above, sent
	// again in the same minute, is dropped now, not handed to a nil func.
	n := len(got)
	tr.SetReceiver(nil)
	if err := sendOne(context.Background(), tr, w.Addr(u), 53, 40000, wire); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Errorf("%d responses delivered after SetReceiver(nil)", len(got)-n)
	}
}

func TestMemTransportClosed(t *testing.T) {
	w := testWorld(t, 16)
	tr := NewMemTransport(w, VantagePrimary)
	tr.Close()
	if err := sendOne(context.Background(), tr, w.Addr(1), 53, 40000, []byte{0}); err != ErrTransportClosed {
		t.Errorf("SendBatch after Close = %v, want ErrTransportClosed", err)
	}
}

func TestMemTransportIgnoresGarbage(t *testing.T) {
	w := testWorld(t, 16)
	tr := NewMemTransport(w, VantagePrimary)
	defer tr.Close()
	tr.SetReceiver(func(netip.Addr, uint16, uint16, []byte) {
		t.Error("garbage produced a response")
	})
	if err := sendOne(context.Background(), tr, w.Addr(12345), 53, 40000, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

// TestTransportsRejectIPv6: both transports refuse a non-IPv4 destination
// with the package's one sentinel.
func TestTransportsRejectIPv6(t *testing.T) {
	w := testWorld(t, 16)
	mem := NewMemTransport(w, VantagePrimary)
	defer mem.Close()
	gw, err := StartGateway(context.Background(), w, VantagePrimary)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	udp, err := DialGateway(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	batch := []Probe{
		{Dst: w.Addr(12345), DstPort: 53, SrcPort: 40000, Payload: []byte{1, 2, 3}},
		{Dst: netip.MustParseAddr("2001:db8::1"), DstPort: 53, SrcPort: 40000, Payload: []byte{1}},
	}
	for name, tr := range map[string]Transport{"mem": mem, "udp": udp} {
		if _, err := tr.SendBatch(context.Background(), batch); !errors.Is(err, errIPv4Only) {
			t.Errorf("%s: SendBatch with an IPv6 destination = %v, want errIPv4Only", name, err)
		}
	}
}

// TestUDPSendBatchStopsAtIPv6: an IPv6 destination at index 2 of
// [v4, v4, v6, v4] ends the batch there, as the Transport contract
// says: n = 2 with errIPv4Only, and exactly probes 0 and 1 leave the
// socket. A plain loopback socket stands in for the gateway and reads the
// tunnel frames in the order they were written; the queries carry IDs 1
// to 4, and a later batch with ID 5 marks the end.
func TestUDPSendBatchStopsAtIPv6(t *testing.T) {
	gw, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	tr, err := DialGateway(gw.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	probe := func(id uint16, dst string) Probe {
		wire, err := dnswire.NewQuery(id, domains.GroundTruth, dnswire.TypeA, dnswire.ClassIN).PackBytes()
		if err != nil {
			t.Fatal(err)
		}
		return Probe{Dst: netip.MustParseAddr(dst), DstPort: 53, SrcPort: 41000, Payload: wire}
	}
	batch := []Probe{probe(1, "10.0.0.1"), probe(2, "10.0.0.2"), probe(3, "2001:db8::1"), probe(4, "10.0.0.4")}
	if n, err := tr.SendBatch(context.Background(), batch); n != 2 || !errors.Is(err, errIPv4Only) {
		t.Fatalf("SendBatch = (%d, %v), want (2, errIPv4Only)", n, err)
	}
	if n, err := tr.SendBatch(context.Background(), []Probe{probe(5, "10.0.0.5")}); n != 1 || err != nil {
		t.Fatalf("marker SendBatch = (%d, %v)", n, err)
	}
	gw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1500)
	var got []uint16
	for len(got) == 0 || got[len(got)-1] != 5 {
		n, _, err := gw.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("frames %v, then %v", got, err)
		}
		got = append(got, binary.BigEndian.Uint16(buf[tunnelHeaderLen:n]))
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 {
		t.Errorf("frames with IDs %v left the socket, want [1 2 5]", got)
	}
}

func TestUDPGatewayRoundTrip(t *testing.T) {
	w := testWorld(t, 16)
	u, _ := findResolver(t, w, At(0), func(p Profile) bool {
		return p.RCode == RCNoError && p.Manip == ManipHonest && !p.MisSourced
	})
	gw, err := StartGateway(context.Background(), w, VantagePrimary)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	tr, err := DialGateway(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	var mu sync.Mutex
	responses := make(chan *dnswire.Message, 4)
	tr.SetReceiver(func(src netip.Addr, srcPort, dstPort uint16, payload []byte) {
		mu.Lock()
		defer mu.Unlock()
		if src != w.Addr(u) && srcPort != 53 {
			t.Errorf("unexpected source %v:%d", src, srcPort)
		}
		m, err := dnswire.Unpack(payload)
		if err == nil {
			responses <- m
		}
	})
	q := dnswire.NewQuery(7, domains.GroundTruth, dnswire.TypeA, dnswire.ClassIN)
	wire, _ := q.PackBytes()
	if _, err := tr.SendBatch(context.Background(), []Probe{{Dst: w.Addr(u), DstPort: 53, SrcPort: 41000, Payload: wire}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-responses:
		if m.Header.ID != 7 || len(m.Answers) == 0 {
			t.Errorf("gateway response = %v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no response through UDP gateway")
	}
}

// TestUDPGatewayBatchRoundTrip drives the gateway through one
// multi-probe SendBatch and checks every probe of the batch gets its
// response.
func TestUDPGatewayBatchRoundTrip(t *testing.T) {
	w := testWorld(t, 16)
	gw, err := StartGateway(context.Background(), w, VantagePrimary)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	tr, err := DialGateway(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// A batch of queries to honest resolvers, each with a distinct
	// transaction ID so responses are attributable.
	var resolvers []uint32
	for u := uint32(1); u < 1<<16 && len(resolvers) < 24; u++ {
		p, ok := w.ProfileAt(u, At(0))
		if ok && p.RCode == RCNoError && p.Manip == ManipHonest && !p.MisSourced && w.VisibleFrom(u, VantagePrimary, At(0)) {
			resolvers = append(resolvers, u)
		}
	}
	if len(resolvers) < 8 {
		t.Fatalf("only %d usable resolvers in the test world", len(resolvers))
	}
	probes := make([]Probe, len(resolvers))
	for i, u := range resolvers {
		q := dnswire.NewQuery(uint16(i+1), domains.GroundTruth, dnswire.TypeA, dnswire.ClassIN)
		wire, err := q.PackBytes()
		if err != nil {
			t.Fatal(err)
		}
		probes[i] = Probe{Dst: w.Addr(u), DstPort: 53, SrcPort: 41000, Payload: wire}
	}

	var mu sync.Mutex
	got := map[uint16]bool{}
	done := make(chan struct{})
	tr.SetReceiver(func(src netip.Addr, srcPort, dstPort uint16, payload []byte) {
		m, err := dnswire.Unpack(payload)
		if err != nil || !m.Header.QR {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		// The IPv6 leg below re-sends probes[0]: count each ID once, so
		// done closes once.
		if got[m.Header.ID] {
			return
		}
		got[m.Header.ID] = true
		if len(got) == len(probes) {
			close(done)
		}
	})

	n, err := tr.SendBatch(context.Background(), probes)
	if err != nil {
		t.Fatalf("SendBatch: %v (after %d probes)", err, n)
	}
	if n != len(probes) {
		t.Fatalf("SendBatch sent %d of %d probes", n, len(probes))
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("only %d/%d batch responses arrived", len(got), len(probes))
	}
	for i := range probes {
		if !got[uint16(i+1)] {
			t.Errorf("probe %d of the batch got no response", i)
		}
	}

	// A cancelled context must refuse the batch before any kernel write.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if n, err := tr.SendBatch(ctx, probes); err == nil || n != 0 {
		t.Errorf("cancelled SendBatch sent %d, err %v", n, err)
	}
	// IPv6 destinations are rejected with the index of the bad probe.
	bad := []Probe{probes[0], {Dst: netip.MustParseAddr("2001:db8::1"), DstPort: 53, Payload: []byte{1}}}
	if n, err := tr.SendBatch(context.Background(), bad); err == nil || n != 1 {
		t.Errorf("IPv6 probe accepted (n=%d err=%v)", n, err)
	}
}

func TestUDPGatewayTimeAdvances(t *testing.T) {
	w := testWorld(t, 16)
	gw, err := StartGateway(context.Background(), w, VantagePrimary)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gw.SetTime(At(30))
	if got := gw.mem.Time(); got.Week != 30 {
		t.Errorf("gateway clock = %+v", got)
	}
}
