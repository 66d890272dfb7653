package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"goingwild/internal/domains"
	"goingwild/internal/metrics"
	"goingwild/internal/wildnet"
)

// stripJSON renders the deterministic portion of a snapshot — the bytes
// two runs of the same scan must agree on.
func stripJSON(t *testing.T, reg *metrics.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Snapshot().StripTiming().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosMetricsSideChannelAndReproducible is the end-to-end contract
// for the metrics layer, per profile:
//
//  1. Side channel: the pipeline summary renders byte-identically with
//     and without a registry attached — observability cannot perturb
//     results.
//  2. Reproducible: the timing-stripped snapshot is byte-identical
//     across repeated runs and across a GOMAXPROCS flip.
//  3. Attributable: each profile's snapshot shows exactly the
//     pathologies that profile injects — hostile garbles, duplicates,
//     and rate-limits; flaky flaps; clean injects nothing.
func TestChaosMetricsSideChannelAndReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos pipeline four times per profile")
	}
	const order, week = 14, 3
	ctx := context.Background()
	for _, profile := range []string{"clean", "hostile", "flaky"} {
		t.Run(profile, func(t *testing.T) {
			bare, err := RunChaosPipeline(ctx, order, profile, week, nil)
			if err != nil {
				t.Fatalf("bare run: %v", err)
			}
			regA := metrics.New()
			a, err := RunChaosPipeline(ctx, order, profile, week, regA)
			if err != nil {
				t.Fatalf("metrics run: %v", err)
			}
			if bare.Render() != a.Render() {
				t.Errorf("attaching a registry changed the results:\n--- bare\n%s--- with metrics\n%s",
					bare.Render(), a.Render())
			}

			regB := metrics.New()
			if _, err := RunChaosPipeline(ctx, order, profile, week, regB); err != nil {
				t.Fatalf("second metrics run: %v", err)
			}
			jsonA, jsonB := stripJSON(t, regA), stripJSON(t, regB)
			if !bytes.Equal(jsonA, jsonB) {
				t.Errorf("deterministic snapshot differs between runs:\n--- run 1\n%s--- run 2\n%s", jsonA, jsonB)
			}

			old := runtime.GOMAXPROCS(0)
			flipped := 1
			if old == 1 {
				flipped = 4
			}
			runtime.GOMAXPROCS(flipped)
			regC := metrics.New()
			_, err = RunChaosPipeline(ctx, order, profile, week, regC)
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatalf("run at GOMAXPROCS=%d: %v", flipped, err)
			}
			if jsonC := stripJSON(t, regC); !bytes.Equal(jsonA, jsonC) {
				t.Errorf("deterministic snapshot diverges at GOMAXPROCS=%d:\n--- base\n%s--- flipped\n%s",
					flipped, jsonA, jsonC)
			}

			s := regA.Snapshot()
			// The scan itself must be visible regardless of profile.
			if s.Counter("scanner.sweep.sent") == 0 {
				t.Error("scanner.sweep.sent = 0; the sweep left no trace")
			}
			if s.Counter("scanner.sweep.recv") == 0 {
				t.Error("scanner.sweep.recv = 0; responses left no trace")
			}
			if s.Counter("pipeline.stage.done") == 0 {
				t.Error("pipeline.stage.done = 0; the engine left no trace")
			}
			// The transport's dispatch reject rides the same snapshot, so
			// the comparisons above cover it under every profile.
			if s.Counter("wildnet.send.rejected") == 0 {
				t.Error("wildnet.send.rejected = 0; the transport dropped nothing at dispatch")
			}
			// So do the answered-path counters (wildnet.response.truncated
			// stays 0 here: no stage of this pipeline provokes truncation).
			if s.Counter("wildnet.send.answered") == 0 {
				t.Error("wildnet.send.answered = 0; no exchange was answered")
			}
			// And the delivered response bytes, the tripwire for the wire
			// responder's encoder: one moved byte anywhere moves this sum.
			if got, flip := s.Counter("wildnet.response.bytes"), regC.Snapshot().Counter("wildnet.response.bytes"); got == 0 || got != flip {
				t.Errorf("wildnet.response.bytes = %d, %d at GOMAXPROCS=%d; want equal and non-zero", got, flip, flipped)
			}
			finished := s.Counter("pipeline.stage.done") + s.Counter("pipeline.stage.degraded") +
				s.Counter("pipeline.stage.failed")
			if got := s.Counter("pipeline.stage.started"); got != finished {
				t.Errorf("pipeline.stage.started = %d but %d stages finished", got, finished)
			}

			faults := []string{
				"wildnet.fault.drop.query", "wildnet.fault.drop.response",
				"wildnet.fault.drop.burst", "wildnet.fault.garbled",
				"wildnet.fault.duplicated", "wildnet.fault.ratelimit.refused",
				"wildnet.fault.ratelimit.dropped", "wildnet.fault.flap.suppressed",
			}
			switch profile {
			case "clean":
				// The 0.2% base loss still triggers retries, but the
				// fault layer itself must stay silent.
				for _, name := range faults {
					if got := s.Counter(name); got != 0 {
						t.Errorf("clean profile injected %s = %d, want 0", name, got)
					}
				}
			case "hostile":
				for _, name := range []string{
					"wildnet.fault.drop.query", "wildnet.fault.garbled",
					"wildnet.fault.duplicated", "wildnet.fault.ratelimit.refused",
				} {
					if s.Counter(name) == 0 {
						t.Errorf("hostile profile left %s = 0", name)
					}
				}
				if s.Counter("scanner.retry.rounds") == 0 || s.Counter("scanner.retry.spend") == 0 {
					t.Error("hostile profile ran without retransmissions")
				}
			case "flaky":
				if s.Counter("wildnet.fault.flap.suppressed") == 0 {
					t.Error("flaky profile left wildnet.fault.flap.suppressed = 0")
				}
			}
		})
	}
}

// TestSendRejectedReconcilesWithSweep reads the sweep's cost split off
// the snapshot: every probe scanner.sweep.sent counts was either dropped
// at the transport's dispatch (wildnet.send.rejected) or reached the
// full pipeline, and the second group is exactly the probed addresses
// something can answer from.
func TestSendRejectedReconcilesWithSweep(t *testing.T) {
	const week = 3
	reg := metrics.New()
	cfg := DefaultConfig(14)
	cfg.Metrics = reg
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.SweepAtContext(context.Background(), week)
	if err != nil {
		t.Fatal(err)
	}
	// The blacklist keeps the sweep off the infrastructure ranges, so
	// the only live destinations it probes are visible resolvers.
	live := uint64(s.World.CountRespondingAt(wildnet.VantagePrimary, wildnet.At(week), s.World.ScanBlacklist().ContainsU32))
	snap := reg.Snapshot()
	sent, rej := snap.Counter("scanner.sweep.sent"), snap.Counter("wildnet.send.rejected")
	if sent != res.Probed {
		t.Fatalf("scanner.sweep.sent = %d, sweep probed %d", sent, res.Probed)
	}
	if sent != rej+live {
		t.Errorf("scanner.sweep.sent = %d, want wildnet.send.rejected %d + %d live destinations", sent, rej, live)
	}
}

// TestSendAnsweredReconcilesWithDomainScan reads the domain scan's cost
// split off the snapshot. Every probe scanner.domains.sent counts was
// rejected at dispatch, met silence, or was answered, so the answered
// exchanges cannot outnumber the probes. And an answered exchange puts at
// least one response on the wire — two when an injected racer beats the
// legitimate answer, never none — so they cannot outnumber the responses
// either, once nothing is lost on the way back: packet loss is off, and a
// response the receiver cannot attribute (a rewritten port under a name
// with fewer than the nine letters whose casing carries the identifier)
// is counted in scanner.domains.unattributed instead of recv.
func TestSendAnsweredReconcilesWithDomainScan(t *testing.T) {
	const week = 3
	reg := metrics.New()
	cfg := DefaultConfig(14)
	cfg.Metrics = reg
	cfg.Loss = 0
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	census, err := s.SweepAtContext(context.Background(), week)
	if err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot().Counter("wildnet.send.answered")
	if _, err := s.Scanner.ScanDomainsContext(context.Background(), census.NOERROR(), domains.Names()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	answered := snap.Counter("wildnet.send.answered") - before
	sent, recv := snap.Counter("scanner.domains.sent"), snap.Counter("scanner.domains.recv")
	unattributed := snap.Counter("scanner.domains.unattributed")
	if answered == 0 || answered > sent {
		t.Errorf("wildnet.send.answered = %d over the scan, scanner.domains.sent = %d", answered, sent)
	}
	if answered > recv+unattributed {
		t.Errorf("wildnet.send.answered = %d exceeds scanner.domains.recv = %d + unattributed = %d", answered, recv, unattributed)
	}
	if unattributed == 0 {
		t.Error("scanner.domains.unattributed = 0 over every name: the short names' rewritten-port responses went uncounted")
	}
}

// TestPlanCountsTheCensusOnce reads a full report plan's traffic off the
// snapshot: the census counters are the census, not a multiple of it by
// however many experiments stand behind it, and the sweep traffic is
// weeks + 2 sweeps — the weekly series, the one census, the cohort's
// week-0 scan — and nothing else.
func TestPlanCountsTheCensusOnce(t *testing.T) {
	const weeks, week = 4, 3
	reg := metrics.New()
	cfg := DefaultConfig(16)
	cfg.Weeks = weeks
	cfg.Metrics = reg
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := s.NewPlan()
	full := addFullReport(p, week)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	census := full.census
	if got, want := snap.Counter("pipeline.count.1-ipv4-scan responders"), uint64(len(census.Sweep.Responders)); got != want {
		t.Errorf("pipeline.count.1-ipv4-scan responders = %d, the census holds %d", got, want)
	}
	if got, want := snap.Counter("pipeline.count.1-noerror resolvers"), uint64(len(census.Resolvers)); got != want {
		t.Errorf("pipeline.count.1-noerror resolvers = %d, the census holds %d", got, want)
	}
	if got, want := snap.Counter("scanner.sweep.sent"), uint64(weeks+2)*census.Sweep.Probed; got != want {
		t.Errorf("scanner.sweep.sent = %d, want %d = (%d weeks + census + week0-scan) × %d probed",
			got, want, weeks, census.Sweep.Probed)
	}
}
