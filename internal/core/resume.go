package core

import (
	"fmt"

	"goingwild/internal/churn"
)

// SeriesStore is the persistence seam between the study and the
// checkpoint layer: the study records progress documents through it and
// polls it for orderly-stop requests, without importing the on-disk
// format. checkpoint.Runner satisfies it; tests use in-memory fakes.
type SeriesStore interface {
	// Update stores v as the named document and persists a checkpoint
	// generation. The weekly series calls it once per committed week.
	Update(name string, v any) error
	// Fetch decodes the named document into v (ok=false when absent).
	Fetch(name string, v any) (bool, error)
	// CheckStop returns checkpoint.ErrStopped when an orderly stop has
	// been requested; the series' sink calls it right after a commit
	// so the run unwinds with the just-saved state intact.
	CheckStop() error
}

// seriesDocName names the resumable series' checkpoint document. One
// store may back several studies only if their sections never run
// concurrently.
const seriesDocName = "series"

// SeriesCheckpoint is the committed cursor of a resumable weekly
// series: every epoch before Cursor is applied into Tracker, and the
// next sweep to run is week Cursor. It is saved by the series' sink right
// after each apply, so a crash between commits re-runs the week in
// flight, sweep and apply, from its start.
type SeriesCheckpoint struct {
	Cursor  int                `json:"cursor"`
	Tracker churn.TrackerState `json:"tracker"`
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

// resumeSeries reads where a weekly series stands in the store: the
// tracker holding every committed epoch and the cursor (the next week to
// sweep). A nil or empty store is a series that has not started.
func (s *Study) resumeSeries(store SeriesStore) (tracker *churn.Tracker, cursor int, err error) {
	tracker = churn.NewTracker(s.locator(), []int{0, s.Cfg.Weeks - 1})
	if store == nil {
		return tracker, 0, nil
	}
	var ck SeriesCheckpoint
	if ok, err := store.Fetch(seriesDocName, &ck); err != nil {
		return nil, 0, err
	} else if ok {
		if ck.Cursor < 0 || ck.Cursor > s.Cfg.Weeks {
			return nil, 0, fmt.Errorf("core: series checkpoint cursor %d out of range for %d weeks", ck.Cursor, s.Cfg.Weeks)
		}
		tracker = churn.ResumeTracker(s.locator(), ck.Tracker)
	}
	return tracker, ck.Cursor, nil
}
