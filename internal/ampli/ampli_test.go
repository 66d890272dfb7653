package ampli

import (
	"context"
	"testing"
	"time"

	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

func runSurvey(t *testing.T, order uint) (*Survey, *wildnet.World, []uint32) {
	t.Helper()
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(order))
	if err != nil {
		t.Fatal(err)
	}
	tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	t.Cleanup(func() { tr.Close() })
	sc := scanner.New(tr, scanner.Options{Workers: 4, SettleDelay: time.Millisecond})
	sweep, err := sc.SweepContext(context.Background(), order, 31, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	resolvers := sweep.NOERROR()
	survey, err := Run(context.Background(), sc, resolvers, "chase.com")
	if err != nil {
		t.Fatal(err)
	}
	return survey, w, resolvers
}

func TestSurveyShape(t *testing.T) {
	s, _, resolvers := runSurvey(t, 17)
	if s.Responded < len(resolvers)*8/10 {
		t.Fatalf("only %d/%d responded to ANY", s.Responded, len(resolvers))
	}
	if s.Refused == 0 {
		t.Error("no resolver refused ANY (expected ≈5%)")
	}
	all, top50, top10 := s.BAFAll(), s.BAFTop(0.5), s.BAFTop(0.1)
	// The amplifier hierarchy must hold and the worst decile must be
	// dramatic, as in amplification surveys (DNS BAF_10 in the dozens).
	if !(top10 > top50 && top50 > all) {
		t.Errorf("BAF ordering broken: all=%.1f top50=%.1f top10=%.1f", all, top50, top10)
	}
	if top10 < 10 {
		t.Errorf("BAF_10 = %.1f, want double digits", top10)
	}
	if all < 1.5 {
		t.Errorf("BAF_all = %.1f, want clearly amplifying", all)
	}
}

func TestSurveyRecoversPlantedClasses(t *testing.T) {
	s, w, _ := runSurvey(t, 16)
	// Measured large amplifiers must be exactly the planted AmpLarge
	// resolvers (threshold cuts between classes).
	for _, m := range s.Measurements {
		class, ok := w.AmpClassAt(m.Addr, wildnet.At(0))
		if !ok {
			continue
		}
		if class == wildnet.AmpLarge && m.BAF() < 10 {
			t.Errorf("planted large amplifier %d measured BAF %.1f", m.Addr, m.BAF())
		}
		if class == wildnet.AmpMinimal && m.BAF() > 10 {
			t.Errorf("planted minimal resolver %d measured BAF %.1f", m.Addr, m.BAF())
		}
	}
	if got := s.CountAbove(10); got == 0 {
		t.Error("no abuse-worthy amplifiers found")
	}
}

func TestEmptySurvey(t *testing.T) {
	s := &Survey{}
	if s.BAFAll() != 0 || s.BAFTop(0.1) != 0 || s.CountAbove(1) != 0 {
		t.Error("empty survey not zero-valued")
	}
}
