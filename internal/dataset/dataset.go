// Package dataset serializes scan results as line-delimited JSON, the
// role of the paper's published dataset ("Upon request, we further
// provide access to all datasets that we addressed throughout our
// analyses"). Every record type round-trips losslessly, and a manifest
// pins the world configuration so a published dataset is reproducible
// bit-for-bit.
package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"goingwild/internal/dnswire"
	"goingwild/internal/lfsr"
	"goingwild/internal/prefilter"
	"goingwild/internal/scanner"
)

// Manifest pins the provenance of a dataset.
type Manifest struct {
	Paper     string `json:"paper"`
	Order     uint   `json:"order"`
	Seed      uint64 `json:"seed"`
	ScanSeed  uint32 `json:"scan_seed"`
	Week      int    `json:"week"`
	Generator string `json:"generator"`
}

// SweepRecord is one responder of an Internet-wide scan.
type SweepRecord struct {
	Addr     string `json:"addr"`
	Source   string `json:"source"`
	RCode    string `json:"rcode"`
	Answered bool   `json:"answered"`
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

// parseIP4 reverses ip4.
func parseIP4(s string) (uint32, error) {
	u, err := lfsr.ParseU32(s)
	if err != nil {
		return 0, fmt.Errorf("dataset: bad address: %w", err)
	}
	return u, nil
}

// WriteManifest writes the provenance header file.
func WriteManifest(w io.Writer, m Manifest) error {
	enc := json.NewEncoder(w)
	return enc.Encode(m)
}

// ReadManifest parses a manifest.
func ReadManifest(r io.Reader) (Manifest, error) {
	var m Manifest
	err := json.NewDecoder(r).Decode(&m)
	return m, err
}

// WriteSweep serializes a sweep result as JSONL.
func WriteSweep(w io.Writer, res *scanner.SweepResult) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range res.Responders {
		rec := SweepRecord{
			Addr: ip4(r.Addr), Source: ip4(r.Source),
			RCode: r.RCode.String(), Answered: r.Answered,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSweep parses a sweep JSONL stream back into responder records.
func ReadSweep(r io.Reader) ([]scanner.Responder, error) {
	var out []scanner.Responder
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var rec SweepRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		addr, err := parseIP4(rec.Addr)
		if err != nil {
			return nil, err
		}
		src, err := parseIP4(rec.Source)
		if err != nil {
			return nil, err
		}
		rc, err := parseRCode(rec.RCode)
		if err != nil {
			return nil, err
		}
		out = append(out, scanner.Responder{
			Addr: addr, Source: src, RCode: rc, Answered: rec.Answered,
		})
	}
	return out, nil
}

// parseRCode reverses RCode.String over the header's 4-bit range.
func parseRCode(s string) (dnswire.RCode, error) {
	for rc := dnswire.RCode(0); rc < 16; rc++ {
		if rc.String() == s {
			return rc, nil
		}
	}
	return 0, fmt.Errorf("dataset: unknown rcode %q", s)
}

// WriteTuples serializes a domain scan's prefiltered tuples: every
// answered tuple with its verdict, plus the unexpected answer addresses.
func WriteTuples(w io.Writer, scan *scanner.DomainScanResult, pre *prefilter.Result) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for ni, name := range scan.Names {
		for ri := range scan.Resolvers {
			verdict := pre.Verdicts[ni][ri]
			if verdict == prefilter.ClassUnanswered {
				continue
			}
			a := &scan.Answers[ni][ri]
			if len(a.Addrs) == 0 {
				rec := TupleRecord{
					Domain: name, Resolver: ip4(scan.Resolvers[ri]),
					IP: "", Verdict: verdict.String(),
				}
				if err := enc.Encode(rec); err != nil {
					return err
				}
				continue
			}
			for _, ip := range a.Addrs {
				rec := TupleRecord{
					Domain: name, Resolver: ip4(scan.Resolvers[ri]),
					IP: ip4(ip), Verdict: verdict.String(),
				}
				if err := enc.Encode(rec); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadTuples parses a tuple JSONL stream.
func ReadTuples(r io.Reader) ([]TupleRecord, error) {
	var out []TupleRecord
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var rec TupleRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}
