package scanner

import (
	"context"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"goingwild/internal/dnswire"
)

// anyScanRef is the map-based form of an ANY scan: a want set, a map
// merged per source under one mutex, and the answers keyed by address.
// It is the oracle for TestANYScanMatchesMapReference.
func anyScanRef(ctx context.Context, s *Scanner, resolvers []uint32, name string) (map[uint32]ANYAnswer, error) {
	q := dnswire.NewQuery(0xA3F, name, dnswire.TypeANY, dnswire.ClassIN)
	q.AddEDNS(4096)
	wire, err := q.PackBytes()
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	out := make(map[uint32]ANYAnswer)
	want := make(map[uint32]struct{}, len(resolvers))
	for _, u := range resolvers {
		want[u] = struct{}{}
	}
	s.tr.SetReceiver(func(src netip4, srcPort, dstPort uint16, payload []byte) {
		m, err := dnswire.Unpack(payload)
		if err != nil || !m.Header.QR {
			return
		}
		u := addrU32(src)
		if _, ok := want[u]; !ok {
			return
		}
		a := ANYAnswer{Size: len(payload)}
		if m.Header.RCode == dnswire.RCodeRefused {
			a = ANYAnswer{Refused: true}
		}
		mu.Lock()
		if old, dup := out[u]; dup {
			a = mergeANYAnswer(old, a)
		}
		out[u] = a
		mu.Unlock()
	})
	defer s.tr.SetReceiver(nil)
	err = s.listScan(ctx, len(resolvers), 0, senderCounters{},
		probeBuild{lent: wire, item: func(i uint32, arena []byte) (uint32, uint16, []byte) {
			return resolvers[i], anyPort, arena
		}}, nil)
	mu.Lock()
	defer mu.Unlock()
	return out, err
}

// TestANYScanMatchesMapReference: the ANY scan, which files each answer
// at its source's list position, returns the answers of the map-based
// reference on the world where one source answers for itself and for a
// mis-sourced sibling, at one sender and at eight racing ones. Under the
// hostile profile garbled datagrams arrive too (14 of the 1 405
// chase.com answers fail the full rule: six of them pass Reset, and four
// of those fail only in a name or an RDATA that a walk of the records
// skips), and each is filed exactly as the reference's Unpack files it.
func TestANYScanMatchesMapReference(t *testing.T) {
	ctx := context.Background()
	for _, profile := range []string{"", "hostile"} {
		w := misSourcedWorld(t, profile)
		for _, workers := range []int{1, 8} {
			for _, name := range []string{"chase.com", "google.com"} {
				// Each side on its own transport: a faulted transport
				// redraws the fate of a datagram it has sent before.
				sc, resolvers := misSourcedCensus(t, w, workers)
				got, err := sc.ScanANYContext(ctx, resolvers, name)
				if err != nil {
					t.Fatal(err)
				}
				sc, _ = misSourcedCensus(t, w, workers)
				want, err := anyScanRef(ctx, sc, resolvers, name)
				if err != nil {
					t.Fatal(err)
				}
				if !maps.Equal(got.Answers, want) {
					for u, a := range want {
						if got.Answers[u] != a {
							t.Errorf("%q workers=%d %s: %#x = %+v, reference %+v", profile, workers, name, u, got.Answers[u], a)
						}
					}
					t.Errorf("%q workers=%d %s: %d answers, reference %d", profile, workers, name, len(got.Answers), len(want))
				}
				if len(want) < len(resolvers)/2 {
					t.Errorf("%q workers=%d %s: %d of %d resolvers answered", profile, workers, name, len(want), len(resolvers))
				}
			}
		}
	}
}

// TestListScansRefuseUnsortedLists: the alive and ANY scans file a
// response at its list position by binary search, so, as a snoop round
// does, each refuses a list that is not strictly increasing with an error
// and no result, before any probe is sent.
func TestListScansRefuseUnsortedLists(t *testing.T) {
	ctx := context.Background()
	var sends atomic.Int64
	s := New(&inspectTransport{check: func(uint32, uint16, []byte) { sends.Add(1) }}, Options{Workers: 4, SettleDelay: NoSettle})
	sorted := []uint32{0x0A000001, 0x0A000002, 0x0A000003, 0x0A000004}
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	dup := []uint32{sorted[0], sorted[1], sorted[1], sorted[2]}
	for name, list := range map[string][]uint32{"reversed": reversed, "duplicate": dup} {
		if alive, err := s.ProbeAliveContext(ctx, list); err == nil || alive != nil {
			t.Errorf("alive scan of a %s list gave %d addresses and error %v, want a refusal", name, len(alive), err)
		}
		if res, err := s.ScanANYContext(ctx, list, "chase.com"); err == nil || res != nil {
			t.Errorf("ANY scan of a %s list gave %+v and error %v, want a refusal", name, res, err)
		}
	}
	if n := sends.Load(); n != 0 {
		t.Errorf("refused scans sent %d probes", n)
	}
	// The sorted list goes out: one alive probe per address and a retry
	// round per silent one, one ANY probe each.
	if _, err := s.ProbeAliveContext(ctx, sorted); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ScanANYContext(ctx, sorted, "chase.com"); err != nil {
		t.Fatal(err)
	}
	if n, want := sends.Load(), int64(len(sorted)*(1+listRetries)+len(sorted)); n != want {
		t.Errorf("sorted lists sent %d probes, want %d", n, want)
	}
}
