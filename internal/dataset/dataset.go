// Package dataset serializes a domain scan's prefiltered tuples as
// line-delimited JSON, the role of the paper's published dataset ("Upon
// request, we further provide access to all datasets that we addressed
// throughout our analyses"). The census a dataset comes from is exported
// beside it as a shardio artifact, which pins the world configuration
// (order, seed, scan seed, week) so the export is reproducible
// bit-for-bit.
package dataset

import (
	"bufio"
	"encoding/json"
	"io"

	"goingwild/internal/lfsr"
	"goingwild/internal/prefilter"
	"goingwild/internal/scanner"
)

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
