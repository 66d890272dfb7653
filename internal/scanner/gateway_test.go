package scanner

import (
	"context"
	"reflect"
	"testing"
	"time"

	"goingwild/internal/domains"
	"goingwild/internal/wildnet"
)

// TestDomainScanOverGatewayMatchesMemory drives a domain scan through the
// loopback UDP gateway — where the engine's batches leave as sendmmsg(2)
// calls carrying per-probe source ports in their tunnel headers — and
// requires every tuple answered over real sockets to equal the in-memory
// transport's. The world draws no loss, the gateway models none, and the
// scan is paced, so the kernel has no reason to drop a datagram; a tuple
// it drops anyway shows as unanswered, not as a wrong answer.
func TestDomainScanOverGatewayMatchesMemory(t *testing.T) {
	cfg := wildnet.DefaultConfig(16)
	cfg.Loss = 0
	w, err := wildnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mem := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	defer mem.Close()
	mem.SetTime(wildnet.At(0))
	inMemory := New(mem, Options{Workers: 2, SettleDelay: NoSettle})
	census, err := inMemory.SweepContext(ctx, 16, 31, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	resolvers := census.NOERROR()
	if len(resolvers) < 64 {
		t.Fatalf("only %d resolvers in the order-16 world", len(resolvers))
	}
	resolvers = resolvers[:64]
	names := []string{"chase.com", "paypal.com", domains.GroundTruth}
	want, err := inMemory.ScanDomainsContext(ctx, resolvers, names)
	if err != nil {
		t.Fatal(err)
	}

	gw, err := wildnet.StartGateway(w, wildnet.VantagePrimary)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gw.SetTime(wildnet.At(0))
	udp, err := wildnet.DialGateway(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	got, err := New(udp, Options{Workers: 2, RatePPS: 5000, SettleDelay: 200 * time.Millisecond}).
		ScanDomainsContext(ctx, resolvers, names)
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
			if !g.Answered() {
				continue
			}
			answered++
			if !reflect.DeepEqual(g, m) {
				t.Errorf("%s at resolver %d: over UDP %+v, in memory %+v", names[ni], ri, g, m)
			}
		}
	}
	if answered < expected*9/10 {
		t.Errorf("only %d of the %d tuples answered in memory were answered over UDP", answered, expected)
	}
}
