package wildnet

import (
	"context"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
)

// TestUDPGatewayDomainScanParity drives a small domain scan through real
// UDP sockets and checks it observes the same answers as the in-memory
// transport — the two transports must be behaviorally identical.
func TestUDPGatewayDomainScanParity(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	w := testWorld(t, 16)
	// Collect a handful of resolvers with distinct behaviors.
	var targets []uint32
	var wanted = []Manip{ManipHonest, ManipStaticIP, ManipNXMonetize}
	for _, m := range wanted {
		for u := uint32(0); u < 1<<16; u++ {
			p, ok := w.ProfileAt(u, At(0))
			if ok && p.RCode == RCNoError && p.Manip == m && !p.MisSourced {
				targets = append(targets, u)
				break
			}
		}
	}
	if len(targets) < 2 {
		t.Skip("not enough distinct resolvers at this order")
	}

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

	collect := func(tr Transport, wait time.Duration) map[uint32][]uint32 {
		out := map[uint32][]uint32{}
		var mu sync.Mutex
		tr.SetReceiver(func(src netip.Addr, srcPort, dstPort uint16, payload []byte) {
			var v dnswire.View
			if v.Reset(payload) != nil || v.Validate() != nil || !v.QR() {
				return
			}
			addrs := v.AppendAnswerA(nil)
			mu.Lock()
			out[uint32(v.ID())] = addrs
			mu.Unlock()
		})
		// One round: loss is a pure function of the packet and the
		// simulated minute, so a repeat would share the first one's fate
		// on both transports.
		batch := &Batch{Dst: targets, DstPort: 53, SrcPort: 42000}
		for i := range targets {
			q := dnswire.NewQuery(uint16(i), domains.GroundTruth, dnswire.TypeA, dnswire.ClassIN)
			wire, _ := q.PackBytes()
			batch.Arena = append(batch.Arena, wire...)
			batch.Ends = append(batch.Ends, len(batch.Arena))
		}
		if _, err := tr.Send(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		time.Sleep(wait)
		mu.Lock()
		defer mu.Unlock()
		cp := map[uint32][]uint32{}
		for k, v := range out {
			cp[k] = v
		}
		return cp
	}

	mem := NewMemTransport(w, VantagePrimary)
	defer mem.Close()
	memOut := collect(mem, 0)
	udpOut := collect(udp, 500*time.Millisecond)

	for id, addrs := range memOut {
		got, ok := udpOut[id]
		if !ok {
			t.Errorf("probe %d missing over UDP", id)
			continue
		}
		if !slices.Equal(got, addrs) {
			t.Errorf("probe %d answers differ: mem=%v udp=%v", id, addrs, got)
		}
	}
	for id, got := range udpOut {
		if _, ok := memOut[id]; !ok {
			t.Errorf("probe %d answered over UDP %v, not in memory", id, got)
		}
	}
}
