// Package shardio is the one on-disk form of a census sweep. It
// serializes per-shard census results so an Internet-wide sweep can be
// split across processes (or machines) and recombined losslessly: each
// scan process runs `wildreport -shard i/M -shard-out f.json`, and
// cmd/wildmerge folds the M artifacts back into the exact result — and
// the exact rendered report — a single unsharded sweep of the same
// (order, seed) produces. An unsharded sweep is the artifact 0/1, which
// is what `wildreport -export DIR` writes as DIR/sweep.json.
//
// The merge is only sound because of the scanner's sharding contract:
// leapfrog shards partition the target permutation, every probe is
// bit-identical to the unsharded sweep's probe for the same target, and
// responders are attributed to probed targets. So shard artifacts are
// disjoint by construction, and merging is concatenation + the same
// sort the unsharded collector applies — no reconciliation policy.
package shardio

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
	"goingwild/internal/scanner"
)

// Artifact is one shard's sweep result plus the provenance needed to
// verify that a set of artifacts belongs to the same logical scan.
type Artifact struct {
	Order    uint   `json:"order"`
	Seed     uint64 `json:"seed"`
	ScanSeed uint32 `json:"scan_seed"`
	Week     int    `json:"week"`
	Shard    int    `json:"shard"`
	Of       int    `json:"of"`
	Probed   uint64 `json:"probed"`
	// Responders holds this shard's responders sorted by address (the
	// order scanner.SweepResult guarantees).
	Responders []Responder `json:"responders"`
}

// Responder mirrors scanner.Responder in dotted-quad form. RCode is
// kept numeric so every value — including codes the renderer has no
// name for — round-trips exactly.
type Responder struct {
	Addr     string `json:"addr"`
	Source   string `json:"source"`
	RCode    uint8  `json:"rcode"`
	Answered bool   `json:"answered,omitempty"`
}

// Provenance identifies the logical scan an artifact belongs to.
type Provenance struct {
	Order    uint
	Seed     uint64
	ScanSeed uint32
	Week     int
}

// FromSweep wraps one shard's sweep result as an artifact.
func FromSweep(p Provenance, shard, of int, res *scanner.SweepResult) Artifact {
	a := Artifact{
		Order: p.Order, Seed: p.Seed, ScanSeed: p.ScanSeed, Week: p.Week,
		Shard: shard, Of: of, Probed: res.Probed,
		Responders: make([]Responder, 0, len(res.Responders)),
	}
	for _, r := range res.Responders {
		a.Responders = append(a.Responders, Responder{
			Addr:     lfsr.U32ToAddr(r.Addr).String(),
			Source:   lfsr.U32ToAddr(r.Source).String(),
			RCode:    uint8(r.RCode),
			Answered: r.Answered,
		})
	}
	return a
}

// Write serializes an artifact as indented JSON (one document, not
// JSONL: an artifact is a unit, merged or rejected as a whole).
func Write(w io.Writer, a Artifact) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteFile writes an artifact to path.
func WriteFile(path string, a Artifact) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ErrCorrupt marks an artifact whose bytes cannot be decoded — a
// truncated copy, a torn write, or garbage. Callers (cmd/wildmerge)
// distinguish it from semantic merge failures with errors.Is and map it
// to its own exit status, because the fix is different: re-transfer or
// re-run the shard, don't debug the scan.
var ErrCorrupt = errors.New("unreadable shard artifact")

// Read parses one artifact. A short or corrupt document is diagnosed
// with the byte offset where decoding failed and wrapped in ErrCorrupt,
// so a half-copied artifact names itself instead of surfacing as a
// vague unmarshal error.
func Read(r io.Reader) (Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		switch {
		case errors.Is(err, io.EOF):
			return Artifact{}, fmt.Errorf("shardio: empty artifact (no JSON document): %w", ErrCorrupt)
		case errors.Is(err, io.ErrUnexpectedEOF):
			return Artifact{}, fmt.Errorf("shardio: artifact truncated at byte %d: %w", dec.InputOffset(), ErrCorrupt)
		case errors.As(err, &syn):
			return Artifact{}, fmt.Errorf("shardio: corrupt artifact at byte %d: %v: %w", syn.Offset, err, ErrCorrupt)
		case errors.As(err, &typ):
			return Artifact{}, fmt.Errorf("shardio: corrupt artifact at byte %d: field %q: %v: %w", typ.Offset, typ.Field, err, ErrCorrupt)
		}
		return Artifact{}, fmt.Errorf("shardio: %w", err)
	}
	if a.Of < 1 || a.Shard < 0 || a.Shard >= a.Of {
		return Artifact{}, fmt.Errorf("shardio: artifact shard %d/%d out of range", a.Shard, a.Of)
	}
	return a, nil
}

// ReadFile reads an artifact from path.
func ReadFile(path string) (Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return Artifact{}, err
	}
	defer f.Close()
	a, err := Read(f)
	if err != nil {
		return Artifact{}, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// Merge recombines a complete artifact set into the sweep result the
// unsharded scan would have produced. It refuses mixed provenance,
// missing or duplicate shards, and targets claimed by more than one
// shard — each of those means the artifacts do not come from one
// coherent sharded scan.
func Merge(arts []Artifact) (*scanner.SweepResult, Provenance, error) {
	if len(arts) == 0 {
		return nil, Provenance{}, fmt.Errorf("shardio: no artifacts to merge")
	}
	p := Provenance{Order: arts[0].Order, Seed: arts[0].Seed, ScanSeed: arts[0].ScanSeed, Week: arts[0].Week}
	of := arts[0].Of
	if len(arts) != of {
		return nil, p, fmt.Errorf("shardio: scan has %d shards, got %d artifacts", of, len(arts))
	}
	seen := make([]bool, of)
	parts := make([]*scanner.SweepResult, 0, of)
	for _, a := range arts {
		if (Provenance{Order: a.Order, Seed: a.Seed, ScanSeed: a.ScanSeed, Week: a.Week}) != p || a.Of != of {
			return nil, p, fmt.Errorf("shardio: shard %d/%d is from a different scan (order %d seed %#x scan-seed %#x week %d)",
				a.Shard, a.Of, a.Order, a.Seed, a.ScanSeed, a.Week)
		}
		if seen[a.Shard] {
			return nil, p, fmt.Errorf("shardio: shard %d/%d supplied twice", a.Shard, of)
		}
		seen[a.Shard] = true
		part := &scanner.SweepResult{Probed: a.Probed, Responders: make([]scanner.Responder, 0, len(a.Responders))}
		for _, r := range a.Responders {
			addr, err := parseIP4(r.Addr)
			if err != nil {
				return nil, p, err
			}
			src, err := parseIP4(r.Source)
			if err != nil {
				return nil, p, err
			}
			part.Responders = append(part.Responders, scanner.Responder{
				Addr: addr, Source: src, RCode: dnswire.RCode(r.RCode), Answered: r.Answered,
			})
		}
		parts = append(parts, part)
	}
	for i, ok := range seen {
		if !ok {
			return nil, p, fmt.Errorf("shardio: shard %d/%d missing", i, of)
		}
	}
	// The deterministic shard-collector combine: concatenation plus the
	// same sort the unsharded collector applies, so downstream renderings
	// are byte-identical. A duplicate target means the artifacts do not
	// come from one coherent sharded scan.
	res, err := scanner.MergeSweepResults(parts)
	if err != nil {
		return nil, p, fmt.Errorf("shardio: target reported by two shards: %w", err)
	}
	return res, p, nil
}

func parseIP4(s string) (uint32, error) {
	u, err := lfsr.ParseU32(s)
	if err != nil {
		return 0, fmt.Errorf("shardio: bad address: %w", err)
	}
	return u, nil
}

// RenderCensus renders one sweep as the census report both
// cmd/wildmerge and `wildreport -exp census` print. It deliberately
// carries no trace of how many shards produced the result: a merged
// M-shard census must be byte-identical to the single-process one.
func RenderCensus(res *scanner.SweepResult) string {
	out := "IPv4 scan census\n"
	out += fmt.Sprintf("  probed       %d\n", res.Probed)
	out += fmt.Sprintf("  responders   %d\n", res.Total())
	out += fmt.Sprintf("  noerror      %d\n", res.ByRCode[dnswire.RCodeNoError])
	out += fmt.Sprintf("  mis-sourced  %d\n", res.MisSourcedCount())
	rcodes := make([]int, 0, len(res.ByRCode))
	for rc := range res.ByRCode {
		rcodes = append(rcodes, int(rc))
	}
	sort.Ints(rcodes)
	for _, rc := range rcodes {
		out += fmt.Sprintf("    %-10s %d\n", dnswire.RCode(rc).String(), res.ByRCode[dnswire.RCode(rc)])
	}
	return out
}
