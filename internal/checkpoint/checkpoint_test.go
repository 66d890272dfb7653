package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("checkpoint"), 1000)} {
		blob := Encode(payload)
		got, err := Decode(blob)
		if err != nil {
			t.Fatalf("Decode(Encode(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip mangled payload: got %d bytes, want %d", len(got), len(payload))
		}
	}
}

func TestDecodeRejectsEveryTruncation(t *testing.T) {
	blob := Encode([]byte(`{"version":1}`))
	for n := 0; n < len(blob); n++ {
		if _, err := Decode(blob[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode of %d/%d-byte truncation: err = %v, want ErrCorrupt", n, len(blob), err)
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	blob := Encode([]byte(`{"version":1,"fingerprint":"abc"}`))
	for i := range blob {
		bad := bytes.Clone(blob)
		bad[i] ^= 0x40
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode with byte %d flipped: err = %v, want ErrCorrupt", i, err)
		}
	}
}

func TestStoreKeepsTwoGenerationsAndLoadsNewest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		st := NewState("fp")
		if err := st.Put("n", i); err != nil {
			t.Fatal(err)
		}
		if err := s.Save(st); err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != keepGenerations {
		t.Fatalf("store holds %d files after pruning, want %d", len(entries), keepGenerations)
	}
	got, diags, err := s.Load()
	if err != nil || got == nil {
		t.Fatalf("Load: %v (state %v)", err, got)
	}
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	var n int
	if ok, err := got.Get("n", &n); !ok || err != nil || n != 3 {
		t.Fatalf("loaded generation carries n=%d (ok=%v err=%v), want 3", n, ok, err)
	}
}

func TestStoreFallsBackPastTornGeneration(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		st := NewState("fp")
		if err := st.Put("n", i); err != nil {
			t.Fatal(err)
		}
		if err := s.Save(st); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the newest generation mid-file, as a crash between write and
	// fsync would.
	newest := s.genPath(s.gen)
	blob, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, diags, err := s.Load()
	if err != nil || got == nil {
		t.Fatalf("Load after tear: %v (state %v)", err, got)
	}
	if len(diags) == 0 || !strings.Contains(diags[0], "falling back") {
		t.Fatalf("expected a fallback diagnostic, got %v", diags)
	}
	var n int
	if ok, _ := got.Get("n", &n); !ok || n != 1 {
		t.Fatalf("fallback loaded n=%d, want 1 (previous generation)", n)
	}
}

func TestStoreLoadEmpty(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "fresh"))
	if err != nil {
		t.Fatal(err)
	}
	st, diags, err := s.Load()
	if st != nil || err != nil || len(diags) != 0 {
		t.Fatalf("empty store Load = (%v, %v, %v), want (nil, none, nil)", st, diags, err)
	}
}

func TestStoreClear(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(NewState("fp")); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if st, _, _ := s.Load(); st != nil {
		t.Fatalf("state survived Clear: %+v", st)
	}
}

// TestOpenRemovesUnpublishedTemp: a kill between a Save's CreateTemp and
// its rename leaves a temp file behind. The next Open removes it, and
// what is left after a Save is the published generation alone.
func TestOpenRemovesUnpublishedTemp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".tmp-ckpt-123456")
	if err := os.WriteFile(stale, []byte("half a generation"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(NewState("fp")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unpublished temp file survived Open and Save (stat err = %v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ckpt-000001" {
		t.Fatalf("store holds %v after one Save, want only ckpt-000001", entries)
	}
}

// TestRunnerSectionReplay simulates a crash between two sections: a
// second runner loaded from the saved state must replay the first
// section's bytes verbatim and run only the missing one.
func TestRunnerSectionReplay(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	r := NewRunner(store, NewState("fp"), &first)
	ran := 0
	run := func(r *Runner, name, text string) {
		t.Helper()
		if err := r.Section(name, func(w io.Writer) error {
			ran++
			_, err := io.WriteString(w, text)
			return err
		}); err != nil {
			t.Fatalf("section %s: %v", name, err)
		}
	}
	run(r, "a", "alpha\n")
	// Crash here: section b never runs. Resume from disk.
	st, _, err := store.Load()
	if err != nil || st == nil {
		t.Fatalf("Load: %v", err)
	}
	var resumed bytes.Buffer
	r2 := NewRunner(store, st, &resumed)
	run(r2, "a", "WRONG — must come from the journal\n")
	run(r2, "b", "beta\n")
	if got, want := resumed.String(), "alpha\nbeta\n"; got != want {
		t.Fatalf("resumed output %q, want %q", got, want)
	}
	if ran != 2 {
		t.Fatalf("section bodies ran %d times, want 2 (journaled section must not re-run)", ran)
	}
}

func TestRunnerStopBetweenSections(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	r := NewRunner(store, NewState("fp"), &out)
	r.RequestStop()
	err = r.Section("a", func(w io.Writer) error { return nil })
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Section under stop request: %v, want ErrStopped", err)
	}
	if err := r.CheckStop(); !errors.Is(err, ErrStopped) {
		t.Fatalf("CheckStop: %v, want ErrStopped", err)
	}
}

// TestOpenRunIgnoresStaleSchema: a state file written by the previous
// schema (here a version-1 file holding a per-shard sweep document) is
// never decoded into today's documents. The resume says why it ignored
// the file and starts fresh.
func TestOpenRunIgnoresStaleSchema(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := NewState("fp")
	old.Version = Version - 1
	oldSweep := map[string]any{
		"order": 16, "seed": 7, "shards": 1, "round": 0, "probed": 4096,
		"workers":    []map[string]any{{"gen": map[string]any{"Order": 16, "Seed": 7, "Of": 1, "Emitted": 4100}, "sent": 4096}},
		"responders": []map[string]any{{"Addr": 9, "Source": 9}},
	}
	if err := old.Put("sweep", oldSweep); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(old); err != nil {
		t.Fatal(err)
	}

	var warn bytes.Buffer
	r, err := OpenRun(dir, true, "fp", io.Discard, &warn)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("schema version %d, want %d; ignoring", Version-1, Version)
	if !strings.Contains(warn.String(), want) {
		t.Errorf("resume diagnostics %q lack %q", warn.String(), want)
	}
	var doc map[string]any
	if ok, err := r.Fetch("sweep", &doc); err != nil || ok {
		t.Errorf("stale sweep document reached the resumed run (ok=%v err=%v): %v", ok, err, doc)
	}
}
