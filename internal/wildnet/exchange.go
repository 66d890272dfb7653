package wildnet

import (
	"sync"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
)

// exchange is the scratch one simulated DNS exchange runs in: the View
// the query is read through, the arena and Compressor its responses are
// appended with, and the slots describing them. A transport takes one per
// Send and runs every datagram of the batch through it,
// so an answered exchange allocates nothing at steady state.
type exchange struct {
	q     dnswire.View
	rb    dnswire.ResponseBuilder
	resps []queryResponse
	// edns is the UDP payload size the query's OPT record advertises,
	// hasEDNS whether it carries one.
	edns    uint16
	hasEDNS bool
	// query backs a template probe's bytes, built past the reject; cn
	// backs the canonical query name while it is looked up; addrs backs
	// an answer set (at most four addresses).
	query []byte
	cn    []byte
	addrs [4]uint32
	// answered and bytes tally the exchanges that drew a response and the
	// response bytes delivered, for the transport to add to the world's
	// counters once per Send.
	answered, bytes uint64
}

var exchangePool = sync.Pool{New: func() any { return new(exchange) }}

// accept points the exchange at one datagram and reports whether a DNS
// server would take it for a query: the header and question parse
// (View.Reset), it is not itself a response, it asks exactly one
// question, and the three record sections walk structurally. Everything
// else vanishes, as on the real Internet — a QR=1 datagram in particular,
// which a server that answered it would bounce between reflectors.
func (x *exchange) accept(payload []byte) bool {
	x.rb.Reset()
	x.resps = x.resps[:0]
	if x.q.Reset(payload) != nil || x.q.QR() || x.q.QDCount() != 1 {
		return false
	}
	var err error
	x.edns, x.hasEDNS, err = x.q.EDNSPayloadSize()
	return err == nil
}

// internedName is an unlisted name list scans repeat, and its index in
// domains.SnoopedTLDs (-1 for the CHAOS version names).
type internedName struct {
	name string
	tld  int
}

// internedNames holds the unlisted names list scans repeat — the snooped
// TLDs and the two CHAOS version names — so qname hands out a shared
// string for them as it does for the scan list, and names a snooped TLD
// in the same lookup.
var internedNames = func() map[string]internedName {
	m := map[string]internedName{"version.bind": {"version.bind", -1}, "version.server": {"version.server", -1}}
	for i, tld := range domains.SnoopedTLDs {
		m[tld] = internedName{tld, i}
	}
	return m
}()

// qname returns the query name in canonical form with its scan-list
// entry and index li (-1 for an unlisted name), and tld, its
// domains.SnoopedTLDs index or -1. A listed or interned name costs no
// allocation; any other name costs its one string.
func (x *exchange) qname() (cn string, d domains.Domain, li, tld int) {
	x.cn = dnswire.AppendCanonicalName(x.cn[:0], x.q.QName())
	if i, ok := domains.IndexBytes(x.cn); ok {
		return domains.List[i].Name, domains.List[i], i, -1
	}
	if in, ok := internedNames[string(x.cn)]; ok {
		return in.name, domains.Domain{}, -1, in.tld
	}
	return string(x.cn), domains.Domain{}, -1, -1
}

// begin starts a response with the given rcode; qname is x.qname().
func (x *exchange) begin(qname string, rcode dnswire.RCode) {
	x.rb.Begin(&x.q, qname, rcode)
}

// emit closes the response under construction and queues it.
func (x *exchange) emit(src uint32, toPort uint16, delayMS int) []queryResponse {
	//lint:allow errdrop a response that does not encode is an empty span the transport skips
	off, end, _ := x.rb.Finish()
	x.resps = append(x.resps, queryResponse{Src: src, ToPort: toPort, DelayMS: delayMS, off: off, end: end})
	return x.resps
}

// wire returns the bytes of a queued response.
func (x *exchange) wire(r queryResponse) []byte { return x.rb.Message(r.off, r.end) }
