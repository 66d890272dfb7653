package checkpoint

import (
	"encoding/json"
	"fmt"
)

// Version is the State schema version; a checkpoint written by a
// different schema is treated as unusable rather than misread. Bump it
// whenever a document stored under Data changes layout. A document no
// reader asks for is never decoded, so dropping one needs no bump.
const Version = 2

// State is everything a resumed run needs. It is one JSON document —
// saved and loaded as a unit, never patched in place — so a checkpoint
// is always internally consistent: the section journal, the named data
// documents, and the fingerprint all describe the same instant.
type State struct {
	// Version is the schema version (must equal Version).
	Version int `json:"version"`
	// Fingerprint identifies the run configuration (order, seed, weeks,
	// flags, ...). A resume refuses a checkpoint whose fingerprint does
	// not match the current invocation: resuming an order-18 run with
	// order-16 flags would silently produce garbage otherwise.
	Fingerprint string `json:"fingerprint"`
	// Sections journals completed report sections in output order, each
	// with its rendered stdout text. A resumed run re-emits the journal
	// verbatim and picks up at the first unfinished section, which is
	// what makes the final stdout byte-identical to an uninterrupted run.
	Sections []Section `json:"sections,omitempty"`
	// Data holds named mid-section state documents (the weekly-series
	// cursor and tracker, a section's degradation entries) owned by
	// whichever subsystem wrote them.
	Data map[string]json.RawMessage `json:"data,omitempty"`
}

// Section is one completed report section: its name and the exact bytes
// it contributed to stdout.
type Section struct {
	Name   string `json:"name"`
	Output string `json:"output"`
}

// NewState builds an empty state for a fresh checkpointed run.
func NewState(fingerprint string) *State {
	return &State{Version: Version, Fingerprint: fingerprint}
}

// SectionDone reports whether the named section is already journaled.
func (st *State) SectionDone(name string) (Section, bool) {
	for _, s := range st.Sections {
		if s.Name == name {
			return s, true
		}
	}
	return Section{}, false
}

// Put stores v as the named data document.
func (st *State) Put(name string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encode %q: %w", name, err)
	}
	if st.Data == nil {
		st.Data = make(map[string]json.RawMessage)
	}
	st.Data[name] = raw
	return nil
}

// Get decodes the named data document into v; ok is false when the
// document is absent.
func (st *State) Get(name string, v any) (bool, error) {
	raw, present := st.Data[name]
	if !present {
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return false, fmt.Errorf("checkpoint: decode %q: %w", name, err)
	}
	return true, nil
}
