package wildnet

import (
	"strings"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/prand"
	"goingwild/internal/software"
)

// queryResponse is one DNS response emitted by the world. A single query
// can yield zero, one, or two responses (the Chinese injector races the
// legitimate answer, §4.2).
type queryResponse struct {
	// Src is the address the response claims to come from.
	Src uint32
	// ToPort is the scanner-side port the response is delivered to;
	// usually the query's source port, but some resolvers rewrite it.
	ToPort uint16
	// DelayMS orders responses in time.
	DelayMS int
	// off and end span the response in the exchange's arena; the span
	// is empty when the response did not encode.
	off, end int
}

// answerAddr is the address an A record carries for a: folded into the
// world's space, except an RFC1918 one, which must look like a real LAN
// address to the client.
func (w *World) answerAddr(a uint32) uint32 {
	if IsLANAddr(a) {
		return a
	}
	return w.Mask(a)
}

// addA adds an A record for a to the response under construction.
func (w *World) addA(x *exchange, a uint32) { x.rb.A(answerTTL, w.answerAddr(a)) }

// answerTTL is the TTL planted on synthesized A answers.
const answerTTL = 300

// pPortScramble is the share of resolvers that return responses to a
// wrong destination port (§3.3 encodes 9 identifier bits redundantly via
// 0x20 precisely because of them).
const pPortScramble = 0.01

// lanBase is 192.168.1.0: captive-portal resolvers answer with LAN
// addresses that are unreachable from the measurement vantage (§4.2: up
// to 65.1% of no-payload tuples are LAN addresses).
const lanBase = uint32(192)<<24 | uint32(168)<<16 | uint32(1)<<8

// IsLANAddr reports whether a returned address is RFC1918 space, which the
// data-acquisition stage cannot reach.
func IsLANAddr(u uint32) bool {
	switch {
	case u>>24 == 10:
		return true
	case u>>20 == (172<<4 | 1): // 172.16/12
		return true
	case u>>16 == (192<<8 | 168):
		return true
	default:
		return false
	}
}

// handleDNS answers one datagram sent from a scan vantage to dst on the
// wire: the query is read through x's View and every response appended
// into x's arena; the returned slots (x's own, valid until its next
// exchange) carry the spans. srcPort is the scanner-side UDP source port
// (echoed into ToPort unless the resolver scrambles it). Stateful hosts
// know how often they have been probed; the snooping prober exposes that
// sequence number through the transaction ID it chooses, which is how the
// single-response-then-stop class of §2.6 is modeled. fc is
// the per-packet fault context the in-memory transport threads through
// for retransmission redraws. Host flaps and rate limiting live here
// rather than in the transport because they are properties of the
// responding host, not of the path — and because trusted infrastructure
// (handled above the resolver path) must stay exempt so the measurement
// channels of §3 remain reliable.
func (w *World) handleDNS(x *exchange, v Vantage, srcPort uint16, dst uint32, payload []byte, t Time, fc faultCtx) []queryResponse {
	if !x.accept(payload) {
		return nil
	}
	q := &x.q
	seq := int(q.ID())
	dst = w.Mask(dst)

	// Infrastructure DNS servers.
	switch role, _ := w.infra.roleParam(dst); role {
	case RoleAuthNS, RoleTrustedDNS:
		return w.answerTrusted(x, dst, srcPort)
	case RoleNone:
		// fall through to resolver handling
	default:
		return nil // web/mail infrastructure runs no DNS service
	}

	if !w.VisibleFrom(dst, v, t) {
		return nil
	}

	// A flapping host is mid-outage: silent to everything, resolver or
	// not, until its window passes. The suppression is counted here, at
	// the query-handling site, because the same predicate also backs the
	// ground-truth walk (CountRespondingAt), which must not inflate
	// traffic counters.
	if w.faultsOn && w.faultFlapped(dst, t) {
		w.fm.flapped.Inc()
		return nil
	}

	p, ok := w.ProfileAt(dst, t)
	if !ok {
		// The injector reacts to queries into Chinese address space
		// even when no resolver lives there.
		if q.QType() == dnswire.TypeA && w.geo.ASOfU32(dst).Country == "CN" {
			if qname, _, _, _ := x.qname(); gfwListed(qname) {
				x.begin(qname, dnswire.RCodeNoError)
				w.addA(x, w.gfwRandomAddr(uint64(dst), qname))
				return x.emit(dst, srcPort, 2)
			}
		}
		return nil
	}

	src := dst
	if p.MisSourced {
		// Proxies and multi-homed hosts answer from a sibling address
		// in the same network block.
		sib := (dst &^ 0xFF) | uint32(prand.Hash(p.Identity, 0x515)%250)
		if w.infra.roleOf(w.Mask(sib)) == RoleNone {
			src = w.Mask(sib)
		}
	}
	toPort := srcPort
	if prand.UnitOf(p.Identity, 0x9047) < pPortScramble {
		toPort = uint16(1024 + prand.Hash(p.Identity, 0x9048, uint64(seq))%50000)
	}
	delay := 5 + int(prand.Hash(p.Identity, uint64(seq))%115)
	qname, d, li, tld := x.qname()
	listed := li >= 0
	status := func(rcode dnswire.RCode) []queryResponse {
		x.begin(qname, rcode)
		return x.emit(src, toPort, delay)
	}

	// Rate-limiting resolvers reject queries above their per-window
	// budget before any resolution work happens.
	if w.faultsOn {
		if refused, dropped := w.faultRateLimited(p.Identity, t, fc); dropped {
			return nil
		} else if refused {
			return status(dnswire.RCodeRefused)
		}
	}

	switch p.RCode {
	case RCRefused:
		return status(dnswire.RCodeRefused)
	case RCServFail:
		return status(dnswire.RCodeServFail)
	}

	// CHAOS version fingerprinting (§2.4).
	if q.QClass() == dnswire.ClassCH {
		w.answerChaos(x, &p, qname)
		return x.emit(src, toPort, delay)
	}

	switch q.QType() {
	case dnswire.TypePTR:
		w.answerPTR(x, qname)
	case dnswire.TypeNS:
		if !q.RD() && tld >= 0 {
			return w.answerSnoop(x, &p, qname, tld, src, toPort, delay, t, seq)
		}
		x.begin(qname, dnswire.RCodeNoError)
		x.rb.NS(answerTTL, "ns1."+qname)
	case dnswire.TypeA:
		return w.answerA(x, &p, qname, d, li, dst, src, toPort, delay, t)
	case dnswire.TypeDNSKEY:
		w.answerDNSKEY(x, qname, listed)
	case dnswire.TypeANY:
		w.answerANY(x, &p, qname, d, listed)
	default:
		return status(dnswire.RCodeNotImp)
	}
	return x.emit(src, toPort, delay)
}

// answerTrusted implements the measurement team's own resolvers and the
// authoritative servers: straight, hierarchy-following resolution.
func (w *World) answerTrusted(x *exchange, dst uint32, srcPort uint16) []queryResponse {
	qname, d, li, _ := x.qname()
	listed := li >= 0
	switch x.q.QType() {
	case dnswire.TypePTR:
		w.answerPTR(x, qname)
	case dnswire.TypeA:
		addrs, rc := w.legitAddrs(x.addrs[:0], qname, x.cn, d, listed, vantageCountry)
		x.begin(qname, rc)
		x.rb.SetAA()
		for _, a := range addrs {
			w.addA(x, a)
		}
		w.signAnswer(x, qname, listed, addrs)
	case dnswire.TypeDNSKEY:
		w.answerDNSKEY(x, qname, listed)
	default:
		x.begin(qname, dnswire.RCodeNotImp)
		x.rb.SetAA()
	}
	return x.emit(dst, srcPort, 1)
}

// answerChaos builds the CHAOS TXT response per the resolver's class.
func (w *World) answerChaos(x *exchange, p *Profile, qname string) {
	isBind := qname == "version.bind"
	isServer := qname == "version.server"
	if !isBind && !isServer {
		x.begin(qname, dnswire.RCodeNotImp)
		return
	}
	switch p.Chaos {
	case ChaosError:
		code := dnswire.RCodeRefused
		if prand.Hash(p.Identity, 0xCE)%2 == 0 {
			code = dnswire.RCodeServFail
		}
		x.begin(qname, code)
	case ChaosEmptyVersion:
		x.begin(qname, dnswire.RCodeNoError)
	case ChaosHidden:
		x.begin(qname, dnswire.RCodeNoError)
		x.rb.RR(dnswire.ClassCH, 0, dnswire.TXT{Strings: []string{software.HiddenStrings[p.HiddenIdx]}})
	default:
		e := software.Catalog[p.SoftwareIdx]
		text := e.Bind
		if isServer {
			text = e.Server
		}
		x.begin(qname, dnswire.RCodeNoError)
		x.rb.RR(dnswire.ClassCH, 0, dnswire.TXT{Strings: []string{text}})
	}
}

// answerPTR resolves reverse lookups against the world's rDNS.
func (w *World) answerPTR(x *exchange, qname string) {
	name := ""
	if u, ok := ParsePTRName(qname); ok {
		name = w.RDNS(w.Mask(u))
	}
	if name == "" {
		x.begin(qname, dnswire.RCodeNXDomain)
		return
	}
	x.begin(qname, dnswire.RCodeNoError)
	x.rb.RR(dnswire.ClassIN, 3600, dnswire.PTR{Target: name})
}

// answerSnoop renders the resolver's cache view for a snooping probe. A
// cached entry is the TLD's two NS records, appended pre-encoded
// (snoopAnswers) with the remaining TTL patched in.
func (w *World) answerSnoop(x *exchange, p *Profile, qname string, tldIdx int, src uint32, toPort uint16, delay int, t Time, seq int) []queryResponse {
	// Daily-churn hosts drop out of reach partway through the window.
	sa := snoopState(p, tldIdx, t.AbsSeconds(), seq)
	if !sa.Responded {
		return nil
	}
	x.begin(qname, dnswire.RCodeNoError)
	if !sa.Empty && sa.Cached {
		x.rb.AppendCanned(&snoopAnswers[tldIdx], sa.TTL)
	}
	return x.emit(src, toPort, delay)
}

// snoopAnswers holds each snooped TLD's cached NS answer section, by
// SnoopedTLDs index: the two servers ns1 and ns2.nic.<tld, dots as
// dashes>.example, encoded once through the ResponseBuilder behind the
// TLD's own question, whose length — and so every compression pointer —
// is the same in every snoop query for it.
var snoopAnswers = func() []dnswire.Canned {
	out := make([]dnswire.Canned, len(domains.SnoopedTLDs))
	var b dnswire.ResponseBuilder
	var v dnswire.View
	for i, tld := range domains.SnoopedTLDs {
		q, err := dnswire.AppendQuery(nil, 0, false, tld, dnswire.TypeNS, dnswire.ClassIN)
		if err == nil {
			err = v.Reset(q)
		}
		if err != nil {
			panic(err)
		}
		b.Reset()
		b.Begin(&v, tld, dnswire.RCodeNoError)
		for _, ns := range []string{"ns1", "ns2"} {
			b.NS(0, ns+".nic."+strings.ReplaceAll(tld, ".", "-")+".example")
		}
		off, end, err := b.Finish()
		if err == nil {
			out[i], err = dnswire.CanAnswers(b.Message(off, end))
		}
		if err != nil {
			panic(err)
		}
	}
	return out
}()

// answerA synthesizes the resolver's answer for an A query, applying
// censorship policy and the manipulation profile. qname is canonical and
// (d, li) its scan-list entry and index, -1 for an unlisted name: the
// caller looks both up once.
func (w *World) answerA(x *exchange, p *Profile, qname string, d domains.Domain, li int, dst, src uint32, toPort uint16, delay int, t Time) []queryResponse {
	listed := li >= 0
	status := func(rcode dnswire.RCode) []queryResponse {
		x.begin(qname, rcode)
		return x.emit(src, toPort, delay)
	}
	answer := func(a uint32) []queryResponse {
		x.begin(qname, dnswire.RCodeNoError)
		w.addA(x, a)
		return x.emit(src, toPort, delay)
	}
	// resolve is legitAddrs from the resolver's country: a listed name's
	// canned answer (la), any other name's address set.
	resolve := func() (la *legitAnswer, addrs []uint32, rc dnswire.RCode) {
		if listed {
			la = w.legitAnswer(li, d, p)
			return la, nil, la.rcode
		}
		addrs, rc = w.legitAddrs(x.addrs[:0], qname, x.cn, d, false, p.Country)
		return nil, addrs, rc
	}
	// legit answers with the zone's own records, signed where the zone
	// is: the canned ones, or addrs encoded here.
	legit := func(la *legitAnswer, addrs []uint32, delayMS int) []queryResponse {
		x.begin(qname, dnswire.RCodeNoError)
		if la != nil {
			x.rb.AppendCanned(&la.recs, answerTTL)
		} else {
			for _, a := range addrs {
				w.addA(x, a)
			}
			w.signAnswer(x, qname, false, addrs)
		}
		return x.emit(src, toPort, delayMS)
	}

	// Censorship takes precedence: it is enforced upstream of the
	// resolver's own behavior.
	switch mode, landing := w.censorDecision(p, qname, d.Category); mode {
	case CensorLanding:
		return answer(landing)
	case CensorGFW:
		out := answer(landing) // poisoned/injected answer, never signed
		if p.GFWDouble {
			la, addrs, _ := resolve()
			out = legit(la, addrs, delay+4)
		}
		return out
	}

	id := p.Identity

	switch p.Manip {
	case ManipEmptyAll:
		return status(dnswire.RCodeNoError)
	case ManipStaticIP:
		return answer(w.staticAnswerAddr(id))
	case ManipSelfIP:
		return answer(dst)
	case ManipCaptiveLAN:
		if prand.UnitOf(id, 0xCA9) < 0.5 {
			return answer(w.infra.addrOf(RoleLoginPortal, int(prand.Hash(id, 0xCAA)%nLoginPortal)))
		}
		return answer(lanBase + 1 + uint32(prand.Hash(id, 0xCAB)%4))
	case ManipWildPark:
		return answer(w.infra.addrOf(RoleParking, int(prand.Hash(id, 0x9A4)%nParking)))
	case ManipStaleMis:
		v := prand.UnitOf(id, 0x57A1E, prand.FNV(qname))
		switch {
		case v < 0.60:
			return answer(w.infra.addrOf(RoleErrorPage, int(prand.Hash(id, prand.FNV(qname))%nErrorPage)))
		case v < 0.85:
			return answer(w.infra.addrOf(RoleDeadCDN, int(prand.Hash(id, 0xDEAD)%nDeadCDN)))
		default:
			sib := (dst &^ 0xFF) | uint32(prand.Hash(id, 0x24)%250)
			return answer(w.Mask(sib))
		}
	case ManipNSOnly:
		x.begin(qname, dnswire.RCodeNoError)
		x.rb.Authority()
		x.rb.NS(answerTTL, "ns1."+qname)
		return x.emit(src, toPort, delay)
	case ManipProtect:
		if listed && d.Category == domains.Malware {
			if prand.UnitOf(id, 0x9207) < 0.7 {
				return status(dnswire.RCodeNoError)
			}
			return answer(w.infra.addrOf(RoleBlockPage, int(prand.Hash(id, 0x9208)%nBlockPage)))
		}
	case ManipNXMonetize:
		if w.monetizes(qname, d, listed, id) {
			return answer(w.monetizeAddr(id, qname))
		}
	case ManipMailRedir:
		if listed && d.Category == domains.MX {
			return answer(w.infra.addrOf(RoleMailSniff, int(prand.Hash(id, 0x3A11)%nMailSniff)))
		}
	case ManipAdRedirect:
		if listed && d.Category == domains.Ads {
			if prand.Hash(id, 0xAD)%2 == 0 {
				return answer(w.infra.addrOf(RoleAdInjectHTML, int(prand.Hash(id, 0xAD1)%nAdInjHTML)))
			}
			return answer(w.infra.addrOf(RoleAdInjectJS, int(prand.Hash(id, 0xAD2)%nAdInjJS)))
		}
	case ManipAdBlock:
		if listed && d.Category == domains.Ads {
			return answer(w.infra.addrOf(RoleAdBlockEmpty, int(prand.Hash(id, 0xADB)%nAdBlock)))
		}
	case ManipAdFakeSearch:
		if domains.IsSearchFront(qname) {
			return answer(w.infra.addrOf(RoleAdFakeSearch, int(prand.Hash(id, 0xADF)%nAdFake)))
		}
	case ManipProxyTLS:
		return answer(w.infra.addrOf(RoleProxyTLS, int(prand.Hash(id, 0x960)%nProxyTLS)))
	case ManipProxyPlain:
		return answer(w.infra.addrOf(RoleProxyPlain, int(prand.Hash(id, 0x961)%nProxyPlain)))
	case ManipPhishPayPal:
		if qname == "paypal.com" {
			return answer(w.infra.addrOf(RolePhishPayPal, int(prand.Hash(id, 0xF15)%nPhishPayPal)))
		}
	case ManipPhishBankBR:
		if qname == "intesasanpaolo.it" {
			return answer(w.infra.addrOf(RolePhishBankBR, 0))
		}
	case ManipPhishBankRU:
		if qname == "intesasanpaolo.it" {
			return answer(w.infra.addrOf(RolePhishBankRU, 0))
		}
	case ManipPhishOther:
		if listed && d.Category == domains.Banking && prand.UnitOf(id, 0xF16, prand.FNV(qname)) < 0.12 {
			return answer(w.infra.addrOf(RolePhishOther, int(prand.Hash(id, 0xF17, prand.FNV(qname))%nPhishOther)))
		}
	case ManipMalware:
		if domains.IsUpdateHost(qname) {
			return answer(w.infra.addrOf(RoleMalware, int(prand.Hash(id, 0x3A1)%nMalware)))
		}
	}

	// Honest resolution (possibly with per-domain quirks).
	if role, prob := domainQuirk(qname); prob > 0 && prand.UnitOf(id, 0x2B1, prand.FNV(qname)) < prob {
		return answer(w.infra.addrOf(role, int(prand.Hash(id, 0x2B2)%uint64(w.infra.rangeSize(role)))))
	}
	la, addrs, rc := resolve()
	if rc == dnswire.RCodeNXDomain {
		// A share of resolvers translates NXDOMAIN into empty NOERROR.
		if prand.UnitOf(id, 0x88F) < 0.3 {
			return status(dnswire.RCodeNoError)
		}
		return status(dnswire.RCodeNXDomain)
	}
	return legit(la, addrs, delay)
}

// monetizes reports whether an NX-monetizing resolver intercepts this
// name: true NXDOMAIN names always; six of the 13 malware domains are
// additionally blacklist-intercepted even though they exist (§4.2).
func (w *World) monetizes(qname string, d domains.Domain, listed bool, id uint64) bool {
	if listed && d.Kind == domains.KindNonexistent {
		return true
	}
	if !listed {
		return false
	}
	if d.Category == domains.Malware && prand.UnitOf(prand.FNV(qname), 0x6D1) < 0.46 {
		return true
	}
	return false
}

// monetizeAddr picks the landing type of an NX-monetizing resolver,
// matching the NX column of Table 5 (Search 35.7%, Parking 23.2%, HTTP
// Error 24.7%, Misc 8.5%, Login 2.8%, Blocking ~2%).
func (w *World) monetizeAddr(id uint64, qname string) uint32 {
	v := prand.UnitOf(id, 0x6D2)
	h := int(prand.Hash(id, 0x6D3, prand.FNV(qname)))
	switch {
	case v < 0.36:
		return w.infra.addrOf(RoleSearchPage, h%nSearch)
	case v < 0.36+0.23:
		return w.infra.addrOf(RoleParking, h%nParking)
	case v < 0.36+0.23+0.25:
		return w.infra.addrOf(RoleErrorPage, h%nErrorPage)
	case v < 0.36+0.23+0.25+0.03:
		return w.infra.addrOf(RoleLoginPortal, h%nLoginPortal)
	case v < 0.36+0.23+0.25+0.03+0.02:
		return w.infra.addrOf(RoleBlockPage, h%nBlockPage)
	default:
		// Misc: some unrelated website.
		return w.infra.addrOf(RoleSiteHost, h%nSiteHost)
	}
}

// staticAnswerAddr is the single address a static-answer resolver returns
// for every query.
func (w *World) staticAnswerAddr(id uint64) uint32 {
	v := prand.UnitOf(id, facetStaticIP)
	h := int(prand.Hash(id, facetStaticIP, 1))
	switch {
	case v < 0.3:
		return w.infra.addrOf(RoleErrorPage, h%nErrorPage)
	case v < 0.5:
		return w.infra.addrOf(RoleParking, h%nParking)
	default:
		// A random address that usually serves nothing.
		return w.Mask(uint32(prand.Hash(id, facetStaticIP, 2)))
	}
}

// domainQuirk returns population-wide oddities of specific domains: the
// two re-registered Chinese malware domains resolve to parking for most
// resolvers, as does torproject.org for a small share (§4.2).
func domainQuirk(qname string) (Role, float64) {
	switch qname {
	case "cn-loader.wicked.example.cn", "cn-seller.wicked.example.cn":
		return RoleParking, 0.90
	case "torproject.org":
		return RoleParking, 0.02
	default:
		return RoleNone, 0
	}
}
