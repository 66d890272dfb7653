package scanner

import (
	"context"
	"errors"
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
	ctx := context.Background()
	got, ok, err := s.LookupPTR(ctx, trusted, target)
	if err != nil || !ok || got != name {
		t.Fatalf("LookupPTR = %q/%v/%v, want %q", got, ok, err, name)
	}
	addrs, rc, ok, err := s.LookupA(ctx, trusted, name)
	if err != nil || !ok || rc != dnswire.RCodeNoError || len(addrs) != 1 || addrs[0] != target {
		t.Errorf("LookupA(%q) = %v rc=%v ok=%v err=%v", name, addrs, rc, ok, err)
	}
}

func TestLookupAForNXDomain(t *testing.T) {
	w, tr := testWorld(t, 16)
	defer tr.Close()
	s := testScanner(tr)
	trusted := w.RoleAddr(wildnet.RoleTrustedDNS, 0)
	addrs, rc, ok, err := s.LookupA(context.Background(), trusted, "ghoogle.com")
	if err != nil || !ok {
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
	if len(round) != len(resolvers) {
		t.Fatalf("snoop round returned %d slots for %d resolvers", len(round), len(resolvers))
	}
	answered := 0
	for i, obs := range round {
		if !obs.Answered {
			if obs != (SnoopObs{}) {
				t.Errorf("silent resolver %d carries an observation: %+v", resolvers[i], obs)
			}
			continue
		}
		answered++
		if obs.Cached == obs.Empty {
			t.Errorf("resolver %d: cached=%v empty=%v, want exactly one", resolvers[i], obs.Cached, obs.Empty)
		}
		if obs.Cached && obs.TTL > 48*3600 {
			t.Errorf("TTL %d out of range", obs.TTL)
		}
	}
	if answered < len(resolvers)/2 {
		t.Errorf("snoop round reached %d/%d resolvers", answered, len(resolvers))
	}
}

// TestProbeContextReturnsTruncatedANY: a moderate amplifier's ANY answer
// to a query without EDNS overflows the 512-octet ceiling, and the single
// exchange hands it back cut to its header and question with TC set.
func TestProbeContextReturnsTruncatedANY(t *testing.T) {
	w, tr := testWorld(t, 18)
	defer tr.Close()
	s := testScanner(tr)
	for u := uint32(0); u < 1<<18; u++ {
		if c, ok := w.AmpClassAt(u, wildnet.At(0)); !ok || c != wildnet.AmpModerate {
			continue
		}
		msgs, err := s.ProbeContext(context.Background(), u, "chase.com", dnswire.TypeANY, dnswire.ClassIN)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if !m.Header.TC {
				continue
			}
			if len(m.Answers) != 0 || len(m.Questions) != 1 || m.Question().Name != "chase.com" {
				t.Errorf("%#x: truncated answer carries %d answers, questions %v", u, len(m.Answers), m.Questions)
			}
			return
		}
	}
	t.Fatal("no moderate amplifier returned a truncated ANY answer at this order")
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

// recordTransport answers nothing and records the length of every batch
// it is handed.
type recordTransport struct {
	nullTransport
	batches []int
}

func (r *recordTransport) SendBatch(ctx context.Context, batch []wildnet.Probe) (int, error) {
	r.batches = append(r.batches, len(batch))
	return len(batch), nil
}

// TestSingleExchangeIsOneBatchOfOne: ProbeContext and the two lookups
// over it reach the wire as exactly one SendBatch of length 1 each, and
// under a dead context they send nothing and say so.
func TestSingleExchangeIsOneBatchOfOne(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		call func(ctx context.Context, s *Scanner) error
	}{
		{"ProbeContext", func(ctx context.Context, s *Scanner) error {
			_, err := s.ProbeContext(ctx, 0x01020304, "example.com", dnswire.TypeA, dnswire.ClassIN)
			return err
		}},
		{"LookupA", func(ctx context.Context, s *Scanner) error {
			_, _, ok, err := s.LookupA(ctx, 0x01020304, "example.com")
			if ok {
				t.Error("LookupA answered by a transport that answers nothing")
			}
			return err
		}},
		{"LookupPTR", func(ctx context.Context, s *Scanner) error {
			_, ok, err := s.LookupPTR(ctx, 0x01020304, 0x05060708)
			if ok {
				t.Error("LookupPTR answered by a transport that answers nothing")
			}
			return err
		}},
	} {
		tr := &recordTransport{}
		s := New(tr, Options{SettleDelay: NoSettle})
		if err := tc.call(context.Background(), s); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if len(tr.batches) != 1 || tr.batches[0] != 1 {
			t.Errorf("%s sent batches of %v, want one batch of 1", tc.name, tr.batches)
		}
		tr.batches = nil
		if err := tc.call(dead, s); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a dead context returned %v, want context.Canceled", tc.name, err)
		}
		if len(tr.batches) != 0 {
			t.Errorf("%s under a dead context sent batches of %v", tc.name, tr.batches)
		}
	}
}
