package wildnet

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
)

// TestUDPGatewayFanOutStress hammers one gateway from several concurrent
// clients, each with its own sender goroutine. It exists for `make
// race`: the clients' datagrams interleave on the gateway's one read
// loop, whose responses go back to whichever peer sent the datagram
// being served, while each client's read loop delivers concurrently
// with its sender.
func TestUDPGatewayFanOutStress(t *testing.T) {
	t.Parallel()
	w := testWorld(t, 14)
	// Aim at real resolvers so responses actually flow.
	var targets []uint32
	for u := uint32(1); u < 1<<14 && len(targets) < 64; u++ {
		if w.ResolverAt(u, At(0)) && w.VisibleFrom(u, VantagePrimary, At(0)) {
			targets = append(targets, u)
		}
	}
	if len(targets) == 0 {
		t.Fatal("world has no visible resolvers")
	}

	gw, err := StartGateway(context.Background(), w, VantagePrimary)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	const clients = 4
	const queriesPerClient = 128
	var responses atomic.Int64

	var transports []*UDPTransport
	for c := 0; c < clients; c++ {
		tr, err := DialGateway(gw.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		tr.SetReceiver(func(src netip.Addr, srcPort, dstPort uint16, payload []byte) {
			if _, err := dnswire.Unpack(payload); err == nil {
				responses.Add(1)
			}
		})
		transports = append(transports, tr)
	}

	var wg sync.WaitGroup
	for c, tr := range transports {
		wg.Add(1)
		go func(c int, tr *UDPTransport) {
			defer wg.Done()
			for i := 0; i < queriesPerClient; i++ {
				u := targets[(c*queriesPerClient+i)%len(targets)]
				q := dnswire.NewQuery(uint16(i), domains.GroundTruth, dnswire.TypeA, dnswire.ClassIN)
				wire, err := q.PackBytes()
				if err != nil {
					t.Errorf("pack: %v", err)
					return
				}
				if _, err := tr.SendBatch(context.Background(), []Probe{{Dst: w.Addr(u), DstPort: 53, SrcPort: uint16(42000 + c), Payload: wire}}); err != nil {
					t.Errorf("client %d send %d: %v", c, i, err)
					return
				}
			}
		}(c, tr)
	}
	wg.Wait()

	// Responses ride real loopback sockets; give them a moment, but not
	// a fixed sleep.
	deadline := time.Now().Add(5 * time.Second)
	for responses.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if responses.Load() == 0 {
		t.Error("no responses survived the concurrent fan-out")
	}
}
