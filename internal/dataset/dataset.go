// Package dataset writes what `wildreport -export DIR` publishes, the
// role of the paper's published dataset ("Upon request, we further
// provide access to all datasets that we addressed throughout our
// analyses"): the week's census as one JSON artifact (DIR/sweep.json)
// and the domain scan's prefiltered tuples as line-delimited JSON
// (DIR/tuples.jsonl). The artifact pins the world configuration (order,
// seed, scan seed, week), so the export is reproducible bit-for-bit.
package dataset

import (
	"bufio"
	"encoding/json"
	"io"
	"os"

	"goingwild/internal/lfsr"
	"goingwild/internal/prefilter"
	"goingwild/internal/scanner"
)

// Artifact is one census sweep with the world configuration it was swept
// in.
type Artifact struct {
	Order    uint   `json:"order"`
	Seed     uint64 `json:"seed"`
	ScanSeed uint32 `json:"scan_seed"`
	Week     int    `json:"week"`
	Probed   uint64 `json:"probed"`
	// Responders holds the sweep's responders sorted by address (the
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

// FromSweep is the artifact of the week's census res, swept in the world
// of the given order and seed with the given scan seed.
func FromSweep(order uint, seed uint64, scanSeed uint32, week int, res *scanner.SweepResult) Artifact {
	a := Artifact{
		Order: order, Seed: seed, ScanSeed: scanSeed, Week: week, Probed: res.Probed,
		Responders: make([]Responder, 0, len(res.Responders)),
	}
	for _, r := range res.Responders {
		a.Responders = append(a.Responders, Responder{
			Addr:     ip4(r.Addr),
			Source:   ip4(r.Source),
			RCode:    uint8(r.RCode),
			Answered: r.Answered,
		})
	}
	return a
}

// WriteFile writes an artifact to path as one indented JSON document.
func WriteFile(path string, a Artifact) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TupleRecord is one (domain ∘ ip ∘ resolver) tuple with its prefilter
// verdict.
type TupleRecord struct {
	Domain   string `json:"domain"`
	Resolver string `json:"resolver"`
	IP       string `json:"ip"`
	Verdict  string `json:"verdict"`
}

func ip4(u uint32) string { return lfsr.U32ToAddr(u).String() }

// WriteTuples serializes a domain scan's prefiltered tuples: every
// answered tuple with its verdict, plus the unexpected answer addresses.
func WriteTuples(w io.Writer, scan *scanner.DomainScanResult, pre *prefilter.Result) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for ni, name := range scan.Names {
		for ri, resolver := range scan.Resolvers {
			verdict := pre.Verdicts[ni][ri]
			if verdict == prefilter.ClassUnanswered {
				continue
			}
			rec := TupleRecord{Domain: name, Resolver: ip4(resolver), Verdict: verdict.String()}
			// One record per answer address; an answer without one is a
			// single record with an empty IP.
			addrs := scan.Answers[ni][ri].Addrs
			for i := 0; i < max(len(addrs), 1); i++ {
				if i < len(addrs) {
					rec.IP = ip4(addrs[i])
				}
				if err := enc.Encode(rec); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}
