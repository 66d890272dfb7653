package scanner

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
	"goingwild/internal/wildnet"
)

// TestSweepProbesCarryTheTemplate: the sweep's builder addresses each
// probe to its target from the base port and hands it the round's
// template, in place of bytes; the bytes the probe builds are the
// template's for that target (dnswire pins those to AppendTargetQuery).
func TestSweepProbesCarryTheTemplate(t *testing.T) {
	baseWire := scanBaseWire(t)
	for attempt := 0; attempt <= 2; attempt++ {
		tmpl := dnswire.NewCensusQuery(baseWire, attempt)
		build := sweepBuild(tmpl)
		for _, u := range []uint32{1, 0x1234, 0xDEADBEEF} {
			var p wildnet.Probe
			if arena := build(u, &p, nil); arena != nil {
				t.Fatalf("attempt %d target %08x: the builder wrote %d arena bytes", attempt, u, len(arena))
			}
			if p.Dst != lfsr.U32ToAddr(u) || p.SrcPort != 33000 || p.Payload != nil || p.Template != tmpl {
				t.Fatalf("attempt %d target %08x: probe header %+v", attempt, u, p)
			}
			want := tmpl.Append(nil, u)
			if got := p.AppendPayload(nil); !bytes.Equal(got, want) {
				t.Fatalf("attempt %d target %08x: probe builds %x, want %x", attempt, u, got, want)
			}
		}
	}
}

// sendOne dispatches one probe as a batch of one, the form a single
// exchange takes.
func sendOne(ctx context.Context, tr Transport, p wildnet.Probe) error {
	_, err := tr.SendBatch(ctx, []wildnet.Probe{p})
	return err
}

// splitTransport re-cuts every batch it is handed into one-probe batches.
type splitTransport struct{ Transport }

func (s splitTransport) SendBatch(ctx context.Context, batch []wildnet.Probe) (int, error) {
	for i, p := range batch {
		if err := sendOne(ctx, s.Transport, p); err != nil {
			return i, err
		}
	}
	return len(batch), nil
}

// TestBatchedDispatchMatchesPerProbe pins, for the sweep and each of the
// five list scans under the hostile profile, that where the batches are
// cut is pure dispatch: N one-probe batches, one N-probe batch and any
// worker count all give the same result.
func TestBatchedDispatchMatchesPerProbe(t *testing.T) {
	ctx := context.Background()
	names := []string{"qq.com", "chase.com", "thepiratebay.se"}
	scans := []struct {
		name string
		run  func(s *Scanner, census *SweepResult) (any, error)
	}{
		{"sweep", func(s *Scanner, census *SweepResult) (any, error) { return census, nil }},
		{"domains", func(s *Scanner, census *SweepResult) (any, error) {
			return s.ScanDomainsContext(ctx, census.NOERROR(), names)
		}},
		{"chaos", func(s *Scanner, census *SweepResult) (any, error) {
			return s.ScanChaosContext(ctx, census.NOERROR())
		}},
		{"alive", func(s *Scanner, census *SweepResult) (any, error) {
			cohort := make([]uint32, len(census.Responders))
			for i, r := range census.Responders {
				cohort[i] = r.Addr
			}
			return s.ProbeAliveContext(ctx, cohort)
		}},
		{"snoop", func(s *Scanner, census *SweepResult) (any, error) {
			return s.SnoopRoundContext(ctx, census.NOERROR(), "com", 3)
		}},
		{"any", func(s *Scanner, census *SweepResult) (any, error) {
			return s.ScanANYContext(ctx, census.NOERROR(), "chase.com")
		}},
	}
	for _, sc := range scans {
		run := func(split bool, workers int) any {
			w, tr := chaosWorld(t, 14, "hostile")
			defer tr.Close()
			var transport Transport = tr
			if split {
				transport = splitTransport{tr}
			}
			s := New(transport, Options{Workers: workers, SweepRetries: 1, SettleDelay: time.Millisecond})
			census, err := s.SweepContext(ctx, 14, 31337, w.ScanBlacklist())
			if err != nil {
				t.Fatal(err)
			}
			if len(census.NOERROR()) < 50 {
				t.Fatalf("only %d resolvers in the order-14 world", len(census.NOERROR()))
			}
			res, err := sc.run(s, census)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run(false, 2)
		if got := run(true, 2); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: one-probe batches diverge from pulled batches", sc.name)
		}
		for _, workers := range []int{1, 8} {
			if got := run(false, workers); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Workers=%d diverges from Workers=2", sc.name, workers)
			}
		}
	}
}
