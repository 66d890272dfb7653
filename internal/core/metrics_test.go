package core

import (
	"bytes"
	"context"
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
