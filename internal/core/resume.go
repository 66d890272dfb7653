package core

import (
	"context"
	"fmt"

	"goingwild/internal/churn"
	"goingwild/internal/scanner"
)

// SeriesStore is the persistence seam between the study and the
// checkpoint layer: the study records progress documents through it and
// polls it for orderly-stop requests, without importing the on-disk
// format. checkpoint.Runner satisfies it; tests use in-memory fakes.
type SeriesStore interface {
	// Update stores v as the named document and persists a checkpoint
	// generation. It is called from scan workers mid-sweep, so it must
	// be safe under concurrency.
	Update(name string, v any) error
	// Fetch decodes the named document into v (ok=false when absent).
	Fetch(name string, v any) (bool, error)
	// Drop removes the named document from the state; the removal
	// reaches disk with the next persisted generation.
	Drop(name string)
	// CheckStop returns checkpoint.ErrStopped when an orderly stop has
	// been requested; scan code calls it right after a successful save
	// so the run unwinds with the just-saved state intact.
	CheckStop() error
}

// Checkpoint document names used by the resumable series. One store may
// back several studies only if their sections never run concurrently.
const (
	seriesDocName = "series"
	sweepDocName  = "series-sweep"
)

// SeriesCheckpoint is the committed cursor of a resumable weekly
// series: every epoch before Cursor is applied into Tracker, and the
// next sweep to run is week Cursor. It is saved by the series' sink right
// after each apply, so a crash between commits re-runs at most one
// week's apply (and the sweep itself resumes from sweepDocName).
type SeriesCheckpoint struct {
	Cursor  int                `json:"cursor"`
	Tracker churn.TrackerState `json:"tracker"`
}

// weekSweepState tags a scanner sweep checkpoint with the week it
// belongs to, so a resume can tell an in-flight week's progress from a
// stale document left by a crash racing the cursor commit.
type weekSweepState struct {
	Week int                     `json:"week"`
	Ck   scanner.SweepCheckpoint `json:"ck"`
}

// SweepAtResumeContext is SweepAtContext with crash-safe resume: same
// week clock, same seed schedule, same result, but sweep progress flows
// through rc (see scanner.SweepResumeContext). A nil rc degrades to the
// plain sweep.
func (s *Study) SweepAtResumeContext(ctx context.Context, week int, rc *scanner.ResumeControl) (*scanner.SweepResult, error) {
	s.SetWeek(week)
	return s.Scanner.SweepResumeContext(ctx, s.Cfg.Order, s.Cfg.ScanSeed+uint32(week)*7919, s.World.ScanBlacklist(), rc)
}

// save stores v as the named document and then honours a requested stop:
// the check runs after the save, so a first-interrupt run unwinds with
// exactly this state on disk.
func save(store SeriesStore, doc string, v any) error {
	if err := store.Update(doc, v); err != nil {
		return err
	}
	return store.CheckStop()
}

// SweepResume wires a resumable sweep to document doc of the store: the
// sweep's rendezvous checkpoints land there, a requested stop unwinds the
// sweep right after a save, and a document a killed run left behind is
// where the sweep picks up. A nil store yields a nil control, which is
// the plain sweep.
func SweepResume(store SeriesStore, doc string) (*scanner.ResumeControl, error) {
	if store == nil {
		return nil, nil
	}
	rc := &scanner.ResumeControl{
		Save: func(ck *scanner.SweepCheckpoint) error { return save(store, doc, ck) },
	}
	var prev scanner.SweepCheckpoint
	if ok, err := store.Fetch(doc, &prev); err != nil {
		return nil, err
	} else if ok {
		rc.Prev = &prev
	}
	return rc, nil
}

// resumeSeries reads where a weekly series stands in the store: the
// tracker holding every committed epoch, the cursor (the next week to
// sweep) and the in-flight week's sweep checkpoint if it left one. A nil
// or empty store is a series that has not started.
func (s *Study) resumeSeries(store SeriesStore) (tracker *churn.Tracker, cursor int, prevSweep *scanner.SweepCheckpoint, err error) {
	tracker = churn.NewTracker(s.locator(), []int{0, s.Cfg.Weeks - 1})
	if store == nil {
		return tracker, 0, nil, nil
	}
	var ck SeriesCheckpoint
	if ok, err := store.Fetch(seriesDocName, &ck); err != nil {
		return nil, 0, nil, err
	} else if ok {
		if ck.Cursor < 0 || ck.Cursor > s.Cfg.Weeks {
			return nil, 0, nil, fmt.Errorf("core: series checkpoint cursor %d out of range for %d weeks", ck.Cursor, s.Cfg.Weeks)
		}
		tracker = churn.ResumeTracker(s.locator(), ck.Tracker)
	}
	var ws weekSweepState
	if ok, err := store.Fetch(sweepDocName, &ws); err != nil {
		return nil, 0, nil, err
	} else if ok && ws.Week == ck.Cursor {
		prevSweep = &ws.Ck
	}
	return tracker, ck.Cursor, prevSweep, nil
}
