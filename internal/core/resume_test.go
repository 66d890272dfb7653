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
// every persisted checkpoint generation, then for every one of those
// generations build a fresh world and resume from that state alone.
// Every resumed run must produce the identical Series. Resuming from
// generation g is also a kill anywhere between week g's commit and week
// g+1's: the kill lands mid-sweep and the resume re-sweeps that week.
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

			// An empty store is the kill before week 0's commit.
			gens := append([]map[string]json.RawMessage{{}}, store.hist...)
			for gen, snap := range gens {
				s := resumeStudy(t, 14, profile, 8)
				res, err := planSeries(s, restoredFrom(snap))
				if err != nil {
					t.Fatalf("resume from generation %d: %v", gen, err)
				}
				if !reflect.DeepEqual(want, res) {
					t.Fatalf("resume from generation %d diverged from the uninterrupted series", gen)
				}
			}
		})
	}
}

// TestSeriesSavesOncePerWeek pins the save cadence: a resumable series of
// W weeks writes exactly W generations, each holding the committed
// cursor and nothing else — no sweep is saved part-way.
func TestSeriesSavesOncePerWeek(t *testing.T) {
	s := resumeStudy(t, 14, "hostile", 8)
	store := newMemStore()
	if _, err := planSeries(s, store); err != nil {
		t.Fatal(err)
	}
	if store.saves != s.Cfg.Weeks {
		t.Fatalf("series of %d weeks saved %d generations, want one per week", s.Cfg.Weeks, store.saves)
	}
	for gen, snap := range store.hist {
		var ck SeriesCheckpoint
		if len(snap) != 1 || json.Unmarshal(snap[seriesDocName], &ck) != nil || ck.Cursor != gen+1 {
			t.Fatalf("generation %d holds %d documents (cursor %d), want only the series cursor %d", gen, len(snap), ck.Cursor, gen+1)
		}
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
	store.stopAt = 2
	stopped := resumeStudy(t, 14, "hostile", 8)
	if _, err := planSeries(stopped, store); !errors.Is(err, errStopRun) {
		t.Fatalf("stopped run returned %v, want the stop error", err)
	}
	if store.saves != 2 {
		t.Fatalf("stop requested at week 1's commit unwound after %d saves, want 2", store.saves)
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
