package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"goingwild/internal/churn"
)

// memStore is an in-memory SeriesStore that snapshots its documents on
// every Update — the JSON round-trip stands in for the on-disk
// checkpoint, and the per-save history lets the test "crash" a run at
// any persisted generation and resume a fresh study from that exact
// state. stopAt, when >0, makes the save with that ordinal request an
// orderly stop (the CheckStop after it returns errStopRun), modeling a
// first-SIGINT drain.
type memStore struct {
	mu     sync.Mutex
	docs   map[string]json.RawMessage
	saves  int
	hist   []map[string]json.RawMessage
	stopAt int
}

var errStopRun = errors.New("stop requested")

func newMemStore() *memStore {
	return &memStore{docs: map[string]json.RawMessage{}}
}

func (m *memStore) snapshotLocked() map[string]json.RawMessage {
	out := make(map[string]json.RawMessage, len(m.docs))
	for k, v := range m.docs {
		out[k] = v
	}
	return out
}

func (m *memStore) Update(name string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.docs[name] = b
	m.saves++
	m.hist = append(m.hist, m.snapshotLocked())
	return nil
}

func (m *memStore) Fetch(name string, v any) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.docs[name]
	if !ok {
		return false, nil
	}
	return true, json.Unmarshal(b, v)
}

func (m *memStore) Drop(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.docs, name)
}

func (m *memStore) CheckStop() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopAt > 0 && m.saves >= m.stopAt {
		return errStopRun
	}
	return nil
}

// restoredFrom builds a store primed with one historical generation, as
// a resume after a SIGKILL at that save would see it.
func restoredFrom(gen map[string]json.RawMessage) *memStore {
	s := newMemStore()
	for k, v := range gen {
		s.docs[k] = v
	}
	return s
}

// planSeries runs the weekly series as a one-stage plan over store, the
// way a checkpointed report does.
func planSeries(s *Study, store SeriesStore) (*churn.Series, error) {
	p := s.NewPlan(store)
	series := p.WeeklySeries(nil)
	if err := p.Run(context.Background()); err != nil {
		return nil, err
	}
	return series.V, nil
}

func resumeStudy(t *testing.T, order uint, profile string, workers int) *Study {
	t.Helper()
	cfg, err := ChaosProfileConfig(order, profile)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Weeks = 4
	cfg.Workers = workers
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSeriesResumeFromEveryGeneration is the core-layer crash-exactness
// proof: run the resumable weekly series once uninterrupted, recording
// every persisted checkpoint generation, then for a spread of those
// generations build a fresh world and resume from that state alone.
// Every resumed run must produce the identical Series — mid-sweep
// generations, committed-cursor generations, and the torn window where
// a sweep document outlives its week's commit all included.
func TestSeriesResumeFromEveryGeneration(t *testing.T) {
	for _, profile := range []string{"clean", "hostile"} {
		t.Run(profile, func(t *testing.T) {
			base := resumeStudy(t, 14, profile, 2)
			store := newMemStore()
			want, err := planSeries(base, store)
			if err != nil {
				t.Fatal(err)
			}

			// The storeless series must be unaffected by the resume plumbing.
			plain := resumeStudy(t, 14, profile, 2)
			got, err := plain.RunWeeklySeriesContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatal("resumable series differs from the storeless series")
			}

			if len(store.hist) < 8 {
				t.Fatalf("only %d checkpoint generations recorded; need a real spread to test", len(store.hist))
			}
			midSweep, committed := 0, 0
			step := len(store.hist)/12 + 1
			for gen := 0; gen < len(store.hist); gen += step {
				snap := store.hist[gen]
				if _, ok := snap[sweepDocName]; ok {
					midSweep++
				}
				if _, ok := snap[seriesDocName]; ok {
					committed++
				}
				s := resumeStudy(t, 14, profile, 8)
				res, err := planSeries(s, restoredFrom(snap))
				if err != nil {
					t.Fatalf("resume from generation %d: %v", gen, err)
				}
				if !reflect.DeepEqual(want, res) {
					t.Fatalf("resume from generation %d diverged from the uninterrupted series", gen)
				}
			}
			if midSweep == 0 || committed == 0 {
				t.Fatalf("sampled generations covered mid-sweep=%d committed=%d; need both kinds", midSweep, committed)
			}
		})
	}
}

// TestSeriesResumeAfterStop covers the orderly first-interrupt path: a
// stop request surfaces from a mid-run CheckStop, the run unwinds with
// its state saved, and a resume from the surviving store completes to
// the uninterrupted result.
func TestSeriesResumeAfterStop(t *testing.T) {
	base := resumeStudy(t, 14, "hostile", 8)
	want, err := planSeries(base, newMemStore())
	if err != nil {
		t.Fatal(err)
	}

	store := newMemStore()
	store.stopAt = 5
	stopped := resumeStudy(t, 14, "hostile", 8)
	if _, err := planSeries(stopped, store); !errors.Is(err, errStopRun) {
		t.Fatalf("stopped run returned %v, want the stop error", err)
	}
	store.stopAt = 0

	resumed := resumeStudy(t, 14, "hostile", 8)
	res, err := planSeries(resumed, store)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, res) {
		t.Fatal("post-stop resume diverged from the uninterrupted series")
	}
	if _, ok := store.docs[sweepDocName]; ok {
		t.Fatal("completed series left a sweep document behind")
	}
}

// TestSeriesResumeAfterCompletion pins the resumed-after-done case: a
// store whose cursor already equals Weeks runs no sweeps and returns
// the checkpointed series as-is.
func TestSeriesResumeAfterCompletion(t *testing.T) {
	base := resumeStudy(t, 14, "clean", 8)
	store := newMemStore()
	want, err := planSeries(base, store)
	if err != nil {
		t.Fatal(err)
	}
	saves := store.saves
	again := resumeStudy(t, 14, "clean", 8)
	res, err := planSeries(again, store)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, res) {
		t.Fatal("resume after completion altered the series")
	}
	if store.saves != saves {
		t.Errorf("resume after completion saved %d more generations; a sweep or a commit ran", store.saves-saves)
	}
}

// TestSeriesResumeRejectsBadCursor guards the fingerprint seam: a
// checkpoint whose cursor exceeds the configured week count is a config
// mismatch, not a silent truncation.
func TestSeriesResumeRejectsBadCursor(t *testing.T) {
	store := newMemStore()
	if err := store.Update(seriesDocName, SeriesCheckpoint{Cursor: 99}); err != nil {
		t.Fatal(err)
	}
	s := resumeStudy(t, 14, "clean", 8)
	if _, err := planSeries(s, store); err == nil {
		t.Fatal("out-of-range cursor accepted")
	} else if want := fmt.Sprintf("cursor %d out of range", 99); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention the cursor", err)
	}
}
