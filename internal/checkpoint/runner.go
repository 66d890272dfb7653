package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
)

// ErrStopped reports an orderly first-signal stop: the run drained to a
// safe point, saved a checkpoint, and exited early on purpose. Commands
// translate it into a distinct exit status (3) so scripts can tell
// "checkpointed, resume me" from success and from failure.
var ErrStopped = errors.New("checkpoint: run stopped; resume with -resume")

// Runner drives a checkpointed run: it owns the State, serializes every
// mutation and Save behind one mutex, and journals each completed report
// section together with the exact bytes it wrote to stdout.
type Runner struct {
	mu    sync.Mutex
	store *Store
	st    *State
	out   io.Writer
	stop  chan struct{} // closed by the first interrupt
	once  sync.Once
}

// NewRunner wraps a store and a state (freshly created or loaded).
// Section output is written to out.
func NewRunner(store *Store, st *State, out io.Writer) *Runner {
	return &Runner{store: store, st: st, out: out, stop: make(chan struct{})}
}

// Section runs one report section with resume semantics. A section
// already present in the journal is not re-run: its recorded output is
// re-emitted verbatim. Otherwise fn renders the section into w; on
// success the output is journaled, the checkpoint saved, and only then
// written to stdout — so a crash at any point either re-runs the whole
// section (not yet journaled) or replays its exact bytes (journaled).
// Between sections, a pending stop request surfaces as ErrStopped.
func (r *Runner) Section(name string, fn func(w io.Writer) error) error {
	r.mu.Lock()
	done, journaled := r.st.SectionDone(name)
	r.mu.Unlock()
	if journaled {
		_, err := io.WriteString(r.out, done.Output)
		return err
	}
	if r.Stopping() {
		return ErrStopped
	}
	var buf bytes.Buffer
	if err := fn(&buf); err != nil {
		return err
	}
	r.mu.Lock()
	r.st.Sections = append(r.st.Sections, Section{Name: name, Output: buf.String()})
	err := r.store.Save(r.st)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = r.out.Write(buf.Bytes())
	return err
}

// Done reports whether the named section is already journaled, i.e. a
// Section call would replay it instead of running it.
func (r *Runner) Done(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.st.SectionDone(name)
	return ok
}

// Update stores v as the named data document and saves a generation.
// The weekly series calls it mid-section, once per committed week, and a
// section's render stage once for its degradation entries.
func (r *Runner) Update(name string, v any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.st.Put(name, v); err != nil {
		return err
	}
	return r.store.Save(r.st)
}

// Fetch decodes the named data document into v (ok=false when absent).
func (r *Runner) Fetch(name string, v any) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st.Get(name, v)
}

// RequestStop asks the run to checkpoint and exit at the next safe
// point: the weekly series' next week commit or the next section
// boundary.
func (r *Runner) RequestStop() {
	r.once.Do(func() { close(r.stop) })
}

// Stopping reports whether a stop has been requested.
func (r *Runner) Stopping() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// CheckStop is the save-callback guard scan code composes with its
// Save function: after a successful checkpoint it converts a pending
// stop request into ErrStopped, which unwinds the scan with the
// just-saved state intact.
func (r *Runner) CheckStop() error {
	if r.Stopping() {
		return ErrStopped
	}
	return nil
}

// InstallSignals arranges two-phase interrupt handling for a
// checkpointed run: the first SIGINT requests an orderly stop (drain to
// the next week commit or section boundary, save, exit via ErrStopped),
// the second cancels hard through cancel. The returned function
// uninstalls the handler.
func (r *Runner) InstallSignals(cancel context.CancelFunc) func() {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt)
	done := make(chan struct{})
	go func() {
		select {
		case <-ch:
			fmt.Fprintln(os.Stderr, "interrupt: checkpointing at next safe point (interrupt again to abort)")
			r.RequestStop()
		case <-done:
			return
		}
		select {
		case <-ch:
			cancel()
		case <-done:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
