package wildnet

import (
	"fmt"
	"sync/atomic"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
)

// Canned legit answers. The honest A answer to a scan-list name — the
// records legitAddrs resolves, plus the RRSIG where the zone is signed —
// is a function of the name and, for a CDN name, of the requester's CDN
// region alone: no resolver draw reaches it. The domain scan asks every
// resolver about every listed name, so the World encodes each (name,
// region) answer once, behind the name's own question, and an answered
// probe appends the bytes with AppendCanned. The compression pointers
// in the records count from the message start, which sits behind a
// question of the same length in every query for the name, whatever its
// letter casing; and every record carries answerTTL, which AppendCanned
// writes back. So the appended bytes are the ones the record appenders
// would have written.

// legitAnswer is one canned honest answer: legitAddrs' rcode and the
// answer records. An NXDOMAIN name has no records.
type legitAnswer struct {
	rcode dnswire.RCode
	recs  dnswire.Canned
}

// legitTable holds a slot per (scan-list index, CDN region), built on
// first use; a name that is not a CDN name uses region 0 only. Racing
// builders store identical answers, so whichever store wins is the same.
type legitTable []atomic.Pointer[legitAnswer]

func newLegitTable() legitTable { return make(legitTable, len(domains.List)*cdnRegions) }

// legitAnswer returns the honest answer to scan-list entry li (d =
// domains.List[li]) as the resolver p resolves it.
//
//lint:hotpath per-probe honest answer of the domain scan
func (w *World) legitAnswer(li int, d domains.Domain, p *Profile) *legitAnswer {
	slot := li * cdnRegions
	if d.Kind == domains.KindCDN {
		slot += regionOfIdx(p.countryIdx())
	}
	if a := w.legit[slot].Load(); a != nil {
		return a
	}
	return w.buildLegit(slot, d, p.Country)
}

// buildLegit encodes one slot's answer the way the live path does —
// legitAddrs, addA per address, signAnswer — behind a lower-case
// question for the name, and cuts the records out. It stays out of line
// so that legitAnswer carries no allocation site.
//
//go:noinline
func (w *World) buildLegit(slot int, d domains.Domain, country string) *legitAnswer {
	q, err := dnswire.AppendQuery(nil, 0, true, d.Name, dnswire.TypeA, dnswire.ClassIN)
	if err != nil {
		panic(fmt.Sprintf("wildnet: scan-list name %q does not encode: %v", d.Name, err))
	}
	x := new(exchange)
	if !x.accept(q) {
		panic(fmt.Sprintf("wildnet: query for scan-list name %q does not parse", d.Name))
	}
	addrs, rc := w.legitAddrs(x.addrs[:0], d.Name, d, true, country)
	x.begin(d.Name, dnswire.RCodeNoError)
	for _, a := range addrs {
		w.addA(x, a)
	}
	w.signAnswer(x, d.Name, true, addrs)
	a := &legitAnswer{rcode: rc}
	off, end, err := x.rb.Finish()
	if err == nil {
		a.recs, err = dnswire.CanAnswers(x.rb.Message(off, end))
	}
	if err != nil {
		panic(fmt.Sprintf("wildnet: canned answer for %q: %v", d.Name, err))
	}
	w.legit[slot].Store(a)
	return a
}
