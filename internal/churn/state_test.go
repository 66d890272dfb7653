package churn

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"goingwild/internal/geodb"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// TestTrackerResumeMidSeries freezes a tracker after k weeks, round-trips
// the state through JSON (as a checkpoint would), and streams the
// remaining weeks into the restored tracker. The final series must be
// identical to an uninterrupted stream's.
func TestTrackerResumeMidSeries(t *testing.T) {
	const order, weeks, cut = 14, 5, 2
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(order))
	if err != nil {
		t.Fatal(err)
	}
	loc := func(u uint32) (string, geodb.RIR) {
		l := w.Geo().LookupU32(u)
		return l.Country, l.RIR
	}
	cfg := StudyConfig{Order: order, Seed: 21, Weeks: weeks, Blacklist: w.ScanBlacklist()}
	retain := []int{0, weeks - 1}

	stream := func(cfg StudyConfig, tr *Tracker) {
		t.Helper()
		mt := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
		defer mt.Close()
		sc := scanner.New(mt, scanner.Options{Workers: 4, SettleDelay: scanner.NoSettle})
		err := StreamWeekly(context.Background(), sc, mt, cfg, func(_ context.Context, d EpochDelta) error {
			_, err := tr.Apply(d)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	whole := NewTracker(loc, retain)
	stream(cfg, whole)

	head := NewTracker(loc, retain)
	headCfg := cfg
	headCfg.Weeks = cut
	stream(headCfg, head)

	blob, err := json.Marshal(head.State())
	if err != nil {
		t.Fatal(err)
	}
	var st TrackerState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	resumed := ResumeTracker(loc, st)
	tailCfg := cfg
	tailCfg.StartWeek = cut
	tailCfg.Prev = resumed.Snapshot()
	stream(tailCfg, resumed)

	if !reflect.DeepEqual(resumed.Series(), whole.Series()) {
		t.Errorf("resumed series diverged after %d/%d weeks: %d vs %d weeks collected",
			cut, weeks, len(resumed.Series().Weeks), len(whole.Series().Weeks))
	}
}
