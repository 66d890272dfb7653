package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store persists State snapshots as numbered generations in one
// directory: ckpt-000001, ckpt-000002, ... Each Save writes a brand-new
// generation atomically — temp file, fsync, rename, directory fsync —
// and then prunes all but the newest keepGenerations files. Load walks
// generations newest-first and returns the first one that decodes
// clean, so a crash at any instant (including mid-rename or mid-prune)
// leaves at least one intact snapshot behind.
type Store struct {
	dir string
	// gen is the generation number of the last snapshot written (or
	// found); the next Save writes gen+1.
	gen uint64
}

// keepGenerations is how many snapshot files survive pruning. Two is
// the minimum that tolerates a torn newest file.
const keepGenerations = 2

const genPrefix = "ckpt-"

// tmpPrefix names a generation still being written. One left in the
// directory is a Save a kill interrupted before its rename.
const tmpPrefix = ".tmp-" + genPrefix

// Open prepares dir (creating it if needed), removes the temp files of
// Saves a killed run never published, and positions the store after the
// newest existing generation. One process owns a store, so no temp file
// found here can belong to a Save in progress.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	s := &Store{dir: dir}
	gens, err := s.generations()
	if err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		s.gen = gens[len(gens)-1]
	}
	return s, nil
}

// generations lists the on-disk generation numbers in ascending order.
func (s *Store) generations() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var gens []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, genPrefix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimPrefix(name, genPrefix), 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, n)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

func (s *Store) genPath(n uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d", genPrefix, n))
}

// Save writes st as the next generation. The write is atomic and
// durable: the envelope goes to a temp file in the same directory,
// which is fsynced before the rename so the rename can never publish
// an incompletely-written file, and the directory is fsynced after so
// the new name itself survives a crash.
func (s *Store) Save(st *State) error {
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("checkpoint: encode state: %w", err)
	}
	blob := Encode(payload)
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	if _, err = f.Write(blob); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: write %s: %w", tmp, err)
	}
	next := s.gen + 1
	if err := os.Rename(tmp, s.genPath(next)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: publish generation %d: %w", next, err)
	}
	s.gen = next
	s.syncDir()
	s.prune()
	return nil
}

// syncDir fsyncs the store directory so a just-renamed generation's
// directory entry is durable. Failure is survivable (the data file
// itself is synced; at worst a crash loses the newest name and resumes
// from the previous generation), so it is not propagated.
func (s *Store) syncDir() {
	d, err := os.Open(s.dir)
	if err != nil {
		return
	}
	d.Sync()
	//lint:allow fsynccheck read-only directory handle; nothing buffered to lose
	d.Close()
}

// prune removes all but the newest keepGenerations snapshot files.
func (s *Store) prune() {
	gens, err := s.generations()
	if err != nil {
		return
	}
	for len(gens) > keepGenerations {
		os.Remove(s.genPath(gens[0]))
		gens = gens[1:]
	}
}

// Load returns the newest decodable snapshot, or nil when the store
// holds none. Torn or corrupt generations are skipped with a
// diagnostic (returned, not printed — the caller owns stderr); only an
// I/O failure listing the directory is an error.
func (s *Store) Load() (*State, []string, error) {
	gens, err := s.generations()
	if err != nil {
		return nil, nil, err
	}
	var diags []string
	for i := len(gens) - 1; i >= 0; i-- {
		path := s.genPath(gens[i])
		blob, err := os.ReadFile(path)
		if err != nil {
			diags = append(diags, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		payload, err := Decode(blob)
		if err != nil {
			diags = append(diags, fmt.Sprintf("%s: %v; falling back to previous generation", path, err))
			continue
		}
		st := new(State)
		if err := json.Unmarshal(payload, st); err != nil {
			diags = append(diags, fmt.Sprintf("%s: decode state: %v; falling back to previous generation", path, err))
			continue
		}
		if st.Version != Version {
			diags = append(diags, fmt.Sprintf("%s: schema version %d, want %d; ignoring", path, st.Version, Version))
			continue
		}
		return st, diags, nil
	}
	return nil, diags, nil
}

// Clear removes every snapshot generation — a fresh (non-resume) run
// must not leave stale state behind for a later -resume to trip over.
func (s *Store) Clear() error {
	gens, err := s.generations()
	if err != nil {
		return err
	}
	for _, g := range gens {
		if err := os.Remove(s.genPath(g)); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	s.gen = 0
	return nil
}
