package scanner

import (
	"context"
	"testing"
	"time"

	"goingwild/internal/dnswire"
	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

func TestProbeAliveTracksCohort(t *testing.T) {
	w, tr := testWorld(t, 16)
	defer tr.Close()
	s := testScanner(tr)
	sweep, err := s.SweepContext(context.Background(), 16, 5, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	var cohort []uint32
	for _, r := range sweep.Responders {
		cohort = append(cohort, r.Addr)
	}
	alive, err := s.ProbeAliveContext(context.Background(), cohort)
	if err != nil {
		t.Fatal(err)
	}
	if len(alive) < len(cohort)*95/100 {
		t.Errorf("same-time reprobe found only %d/%d", len(alive), len(cohort))
	}
	// A week later, many are gone.
	tr.SetTime(wildnet.At(1))
	aliveLater, err := s.ProbeAliveContext(context.Background(), cohort)
	if err != nil {
		t.Fatal(err)
	}
	if len(aliveLater) >= len(alive) {
		t.Errorf("no churn observed: %d then %d", len(alive), len(aliveLater))
	}
}

func TestLookupPTRAndA(t *testing.T) {
	w, tr := testWorld(t, 16)
	defer tr.Close()
	s := testScanner(tr)
	trusted := w.RoleAddr(wildnet.RoleTrustedDNS, 0)
	// Find an address with an rDNS record whose A round trip holds.
	var target uint32
	var name string
	for u := uint32(64); u < 1<<16; u += 31 {
		if n := w.RDNS(u); n != "" {
			if back, rc := w.LegitAddrs(n, "DE"); rc == dnswire.RCodeNoError && len(back) == 1 && back[0] == u {
				target, name = u, n
				break
			}
		}
	}
	if name == "" {
		t.Skip("no round-trippable rDNS name found")
	}
	got, ok := s.LookupPTR(trusted, target)
	if !ok || got != name {
		t.Fatalf("LookupPTR = %q/%v, want %q", got, ok, name)
	}
	addrs, rc, ok := s.LookupA(trusted, name)
	if !ok || rc != dnswire.RCodeNoError || len(addrs) != 1 || addrs[0] != target {
		t.Errorf("LookupA(%q) = %v rc=%v ok=%v", name, addrs, rc, ok)
	}
}

func TestLookupAForNXDomain(t *testing.T) {
	w, tr := testWorld(t, 16)
	defer tr.Close()
	s := testScanner(tr)
	trusted := w.RoleAddr(wildnet.RoleTrustedDNS, 0)
	addrs, rc, ok := s.LookupA(trusted, "ghoogle.com")
	if !ok {
		t.Fatal("trusted resolver silent")
	}
	if rc != dnswire.RCodeNXDomain || len(addrs) != 0 {
		t.Errorf("NX lookup = %v rc=%v", addrs, rc)
	}
}

func TestRateLimiterPacing(t *testing.T) {
	rl := newRateLimiter(1000, nil) // 1k pps → 1ms interval
	start := time.Now()
	for i := 0; i < 50; i++ {
		rl.wait(context.Background())
	}
	elapsed := time.Since(start)
	// 50 tokens at 1k pps should take ≈50ms, modulo the 2ms burst
	// allowance; anything under 20ms means pacing is broken.
	if elapsed < 20*time.Millisecond {
		t.Errorf("50 tokens at 1k pps took %v", elapsed)
	}
	unlimited := newRateLimiter(0, nil)
	start = time.Now()
	for i := 0; i < 10000; i++ {
		unlimited.wait(context.Background())
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("unlimited rate limiter slept")
	}
}

func TestSnoopRoundAttribution(t *testing.T) {
	w, tr := testWorld(t, 16)
	defer tr.Close()
	s := testScanner(tr)
	sweep, err := s.SweepContext(context.Background(), 16, 5, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	resolvers := sweep.NOERROR()
	round, err := s.SnoopRoundContext(context.Background(), resolvers, "com", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(round) < len(resolvers)/2 {
		t.Errorf("snoop round reached %d/%d resolvers", len(round), len(resolvers))
	}
	for u, obs := range round {
		if !obs.Answered {
			t.Errorf("unanswered observation recorded for %d", u)
		}
		if obs.Cached && obs.TTL > 48*3600 {
			t.Errorf("TTL %d out of range", obs.TTL)
		}
	}
}

func TestTruncationAndTCPFallback(t *testing.T) {
	w, tr := testWorld(t, 18)
	defer tr.Close()
	s := testScanner(tr)
	// Find a moderate amplifier whose ANY payload exceeds 512 octets
	// (no EDNS): its UDP answer must truncate and TCP must recover it.
	var target uint32
	found := false
	for u := uint32(0); u < 1<<18 && !found; u++ {
		if c, ok := w.AmpClassAt(u, wildnet.At(0)); !ok || c != wildnet.AmpModerate {
			continue
		}
		msgs, fellBack := s.ProbeTC(u, "chase.com", dnswire.TypeANY, dnswire.ClassIN)
		if !fellBack {
			continue
		}
		found = true
		target = u
		full := msgs[len(msgs)-1]
		if full.Header.TC {
			t.Error("TCP response still truncated")
		}
		wire, err := full.PackBytes()
		if err != nil {
			t.Fatal(err)
		}
		if len(wire) <= dnswire.MaxUDPSize {
			t.Errorf("TCP answer only %d bytes — nothing was truncated", len(wire))
		}
	}
	if !found {
		t.Skip("no truncating moderate amplifier with TCP service at this order")
	}
	_ = target
}

func TestTCPFramingRoundTrip(t *testing.T) {
	q := dnswire.NewQuery(5, "chase.com", dnswire.TypeA, dnswire.ClassIN)
	frame, err := q.PackTCP()
	if err != nil {
		t.Fatal(err)
	}
	m, consumed, err := dnswire.UnpackTCP(frame)
	if err != nil || consumed != len(frame) {
		t.Fatalf("UnpackTCP: %v consumed=%d", err, consumed)
	}
	if m.Header.ID != 5 {
		t.Errorf("id = %d", m.Header.ID)
	}
	if _, _, err := dnswire.UnpackTCP(frame[:1]); err == nil {
		t.Error("short frame accepted")
	}
}

func TestStatsCounting(t *testing.T) {
	w, mem := testWorld(t, 16)
	defer mem.Close()
	reg := metrics.New()
	s := New(mem, Options{Workers: 4, SettleDelay: NoSettle, Metrics: reg})
	res, err := s.SweepContext(context.Background(), 16, 5, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	sent, recv := snap.Traffic()
	if sent != res.Probed || sent != snap.Counter("scanner.sweep.sent") {
		t.Errorf("sent=%d (scanner.sweep.sent=%d), want the census's %d probes", sent, snap.Counter("scanner.sweep.sent"), res.Probed)
	}
	if recv < uint64(res.Total()) || recv > sent {
		t.Errorf("recv=%d outside [%d responders, %d probes]", recv, res.Total(), sent)
	}
}
