package scanner

import (
	"context"
	"maps"
	"reflect"
	"testing"
	"time"

	"goingwild/internal/domains"
	"goingwild/internal/wildnet"
)

// gatewayRig builds one order-16 world behind both transports — in
// memory, and over the loopback UDP gateway, where the engine's batches
// leave as datagrams carrying per-probe source ports in their tunnel
// headers — with the first 64 resolvers of its census. The gateway runs
// every datagram through its own in-memory transport, so both draw the
// world's loss alike, and the UDP scanner is paced, so the kernel has no
// reason to drop a datagram.
func gatewayRig(t *testing.T) (inMemory, overUDP *Scanner, resolvers []uint32) {
	t.Helper()
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	mem := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	t.Cleanup(func() { mem.Close() })
	mem.SetTime(wildnet.At(0))
	inMemory = New(mem, Options{Workers: 2, SettleDelay: NoSettle})
	census, err := inMemory.SweepContext(context.Background(), 16, 31, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	resolvers = census.NOERROR()
	if len(resolvers) < 64 {
		t.Fatalf("only %d resolvers in the order-16 world", len(resolvers))
	}
	gw, err := wildnet.StartGateway(context.Background(), w, wildnet.VantagePrimary)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	gw.SetTime(wildnet.At(0))
	udp, err := wildnet.DialGateway(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { udp.Close() })
	overUDP = New(udp, Options{Workers: 2, RatePPS: 5000, SettleDelay: 200 * time.Millisecond})
	return inMemory, overUDP, resolvers[:64]
}

// TestDomainScanOverGatewayMatchesMemory drives a domain scan through the
// loopback UDP gateway and requires every tuple, answered or not, to
// equal the in-memory transport's.
func TestDomainScanOverGatewayMatchesMemory(t *testing.T) {
	inMemory, overUDP, resolvers := gatewayRig(t)
	ctx := context.Background()
	names := []string{"chase.com", "paypal.com", domains.GroundTruth}
	want, err := inMemory.ScanDomainsContext(ctx, resolvers, names)
	if err != nil {
		t.Fatal(err)
	}
	got, err := overUDP.ScanDomainsContext(ctx, resolvers, names)
	if err != nil {
		t.Fatal(err)
	}

	answered, expected := 0, 0
	for ni := range names {
		for ri := range resolvers {
			g, m := got.Answers[ni][ri], want.Answers[ni][ri]
			if m.Answered() {
				expected++
			}
			if g.Answered() {
				answered++
			}
			if !reflect.DeepEqual(g, m) {
				t.Errorf("%s at resolver %d: over UDP %+v, in memory %+v", names[ni], ri, g, m)
			}
		}
	}
	if answered != expected {
		t.Errorf("%d tuples answered over UDP, %d in memory", answered, expected)
	}
}

// TestANYScanOverGatewayMatchesMemory: the ANY scan settles like every
// scan on the engine, so over real sockets it waits for its answers and
// returns what the in-memory transport returns. (A send loop that returns
// with the answers still in flight comes back empty here.)
func TestANYScanOverGatewayMatchesMemory(t *testing.T) {
	inMemory, overUDP, resolvers := gatewayRig(t)
	ctx := context.Background()
	want, err := inMemory.ScanANYContext(ctx, resolvers, "chase.com")
	if err != nil {
		t.Fatal(err)
	}
	got, err := overUDP.ScanANYContext(ctx, resolvers, "chase.com")
	if err != nil {
		t.Fatal(err)
	}
	if got.RequestSize != want.RequestSize {
		t.Errorf("request size over UDP %d, in memory %d", got.RequestSize, want.RequestSize)
	}
	if !maps.Equal(got.Answers, want.Answers) {
		t.Errorf("answers over UDP %+v, in memory %+v", got.Answers, want.Answers)
	}
	if len(want.Answers) < len(resolvers)/2 {
		t.Errorf("%d of %d resolvers answered in memory", len(want.Answers), len(resolvers))
	}
}
