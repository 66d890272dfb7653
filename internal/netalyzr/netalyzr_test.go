package netalyzr

import (
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/wildnet"
)

func testWorld(t *testing.T) *wildnet.World {
	t.Helper()
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testConfig(w *wildnet.World, sessions int) Config {
	return Config{
		Sessions:     sessions,
		Seed:         99,
		Week:         50,
		ProbeNX:      "ghoogle.com",
		ProbeDomains: []string{"chase.com"},
		TrustedResolve: func(name string) ([]uint32, dnswire.RCode) {
			return w.LegitAddrs(name, "DE")
		},
		SameNeighborhood: func(a, b uint32) bool { return w.ASNOf(a) == w.ASNOf(b) },
	}
}

func TestClosedResolversServeOnlyTheirBlock(t *testing.T) {
	w := testWorld(t)
	client := uint32(5000)
	resolver := w.ClosedResolverOf(client)
	q, err := dnswire.AppendQuery(nil, 1, true, "chase.com", dnswire.TypeA, dnswire.ClassIN)
	if err != nil {
		t.Fatal(err)
	}
	resps := w.HandleClientDNS(client, q, wildnet.At(50))
	if len(resps) == 0 {
		t.Fatal("in-network client got no answer")
	}
	var v dnswire.View
	if err := v.Reset(resps[0]); err != nil {
		t.Fatal(err)
	}
	if v.RCode() == dnswire.RCodeRefused {
		t.Errorf("in-network client refused by its closed resolver %d", resolver)
	}
}

func TestSessionsFindMonetizers(t *testing.T) {
	w := testWorld(t)
	study := Run(w, testConfig(w, 400))
	if len(study.Sessions) != 400 {
		t.Fatalf("sessions = %d", len(study.Sessions))
	}
	// ~11% of ISP resolvers monetize NXDOMAIN traffic; with 400
	// sessions the count must be clearly nonzero and clearly minority.
	if study.Monetizers == 0 {
		t.Error("no NXDOMAIN monetization observed in-network")
	}
	if study.Monetizers > len(study.Sessions)/2 {
		t.Errorf("monetizers = %d of %d, implausibly many", study.Monetizers, len(study.Sessions))
	}
	// Most sessions see honest answers for an ordinary domain.
	if study.Manipul > len(study.Sessions)/2 {
		t.Errorf("manipulated = %d of %d, implausibly many", study.Manipul, len(study.Sessions))
	}
}

func TestSessionsDeterministic(t *testing.T) {
	w := testWorld(t)
	a := Run(w, testConfig(w, 50))
	b := Run(w, testConfig(w, 50))
	if a.Monetizers != b.Monetizers || a.Manipul != b.Manipul {
		t.Error("study not deterministic")
	}
	for i := range a.Sessions {
		if a.Sessions[i] != b.Sessions[i] {
			t.Fatalf("session %d differs", i)
		}
	}
}
