package wildnet

import (
	"net/netip"
	"strings"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/prand"
	"goingwild/internal/software"
)

// QueryResponse is one DNS response emitted by the world. A single query
// can yield zero, one, or two responses (the Chinese injector races the
// legitimate answer, §4.2).
type QueryResponse struct {
	// Src is the address the response claims to come from.
	Src uint32
	// ToPort is the scanner-side port the response is delivered to;
	// usually the query's source port, but some resolvers rewrite it.
	ToPort uint16
	// DelayMS orders responses in time.
	DelayMS int
	Msg     *dnswire.Message
}

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

// HandleDNS processes one DNS query sent from a scan vantage to dst and
// returns the wire responses. srcPort is the scanner-side UDP source port
// (echoed into ToPort unless the resolver scrambles it). Stateful hosts
// know how often they have been probed; the snooping prober exposes that
// sequence number through the transaction ID it chooses, which is how the
// single-response-then-stop class of §2.6 is modeled.
func (w *World) HandleDNS(v Vantage, srcPort uint16, dst uint32, q *dnswire.Message, t Time) []QueryResponse {
	return w.handleDNS(v, srcPort, dst, q, t, faultCtx{})
}

// handleDNS is HandleDNS plus the per-packet fault context the in-memory
// transport threads through for retransmission redraws. Host flaps and
// rate limiting live here rather than in the transport because they are
// properties of the responding host, not of the path — and because
// trusted infrastructure (handled above the resolver path) must stay
// exempt so the measurement channels of §3 remain reliable.
func (w *World) handleDNS(v Vantage, srcPort uint16, dst uint32, q *dnswire.Message, t Time, fc faultCtx) []QueryResponse {
	seq := int(q.Header.ID)
	dst = w.Mask(dst)
	if len(q.Questions) == 0 {
		return nil
	}
	question := q.Questions[0]
	qname := dnswire.CanonicalName(question.Name)

	// Infrastructure DNS servers.
	switch role, _ := w.infra.roleParam(dst); role {
	case RoleAuthNS, RoleTrustedDNS:
		return w.answerTrusted(dst, srcPort, q)
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
		if w.geo.LookupU32(dst).Country == "CN" && question.Type == dnswire.TypeA && GFWMatches(qname) {
			resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
			resp.AddAnswer(question.Name, dnswire.ClassIN, answerTTL,
				dnswire.A{Addr: w.Addr(w.gfwRandomAddr(uint64(dst), qname))})
			return []QueryResponse{{Src: dst, ToPort: srcPort, DelayMS: 2, Msg: resp}}
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
	emit := func(m *dnswire.Message) []QueryResponse {
		return []QueryResponse{{Src: src, ToPort: toPort, DelayMS: delay, Msg: m}}
	}

	// Rate-limiting resolvers reject queries above their per-window
	// budget before any resolution work happens.
	if w.faultsOn {
		if refused, dropped := w.faultRateLimited(p.Identity, t, fc); dropped {
			return nil
		} else if refused {
			return emit(dnswire.NewResponse(q, dnswire.RCodeRefused))
		}
	}

	switch p.RCode {
	case RCRefused:
		return emit(dnswire.NewResponse(q, dnswire.RCodeRefused))
	case RCServFail:
		return emit(dnswire.NewResponse(q, dnswire.RCodeServFail))
	}

	// CHAOS version fingerprinting (§2.4).
	if question.Class == dnswire.ClassCH {
		return emit(w.answerChaos(&p, q, qname))
	}

	switch question.Type {
	case dnswire.TypePTR:
		return emit(w.answerPTR(q, qname))
	case dnswire.TypeNS:
		if !q.Header.RD {
			if tldIdx := snoopedTLDIndex(qname); tldIdx >= 0 {
				return w.answerSnoop(&p, q, qname, tldIdx, src, toPort, delay, t, seq)
			}
		}
		resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
		resp.AddAnswer(question.Name, dnswire.ClassIN, answerTTL, dnswire.NS{Host: "ns1." + qname})
		return emit(resp)
	case dnswire.TypeA:
		d, listed := domains.ByName(qname)
		return w.answerA(&p, q, qname, d, listed, dst, src, toPort, delay, t)
	case dnswire.TypeDNSKEY:
		return emit(w.answerDNSKEY(q, qname))
	case dnswire.TypeANY:
		return emit(w.answerANY(&p, q, qname))
	default:
		return emit(dnswire.NewResponse(q, dnswire.RCodeNotImp))
	}
}

// answerTrusted implements the measurement team's own resolvers and the
// authoritative servers: straight, hierarchy-following resolution.
func (w *World) answerTrusted(dst uint32, srcPort uint16, q *dnswire.Message) []QueryResponse {
	question := q.Questions[0]
	qname := dnswire.CanonicalName(question.Name)
	resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
	resp.Header.AA = true
	switch question.Type {
	case dnswire.TypePTR:
		resp = w.answerPTR(q, qname)
	case dnswire.TypeA:
		addrs, rc := w.TrustedResolve(qname)
		resp.Header.RCode = rc
		for _, a := range addrs {
			resp.AddAnswer(question.Name, dnswire.ClassIN, answerTTL, dnswire.A{Addr: w.Addr(a)})
		}
		w.signAnswer(resp, qname)
	case dnswire.TypeDNSKEY:
		resp = w.answerDNSKEY(q, qname)
	default:
		resp.Header.RCode = dnswire.RCodeNotImp
	}
	return []QueryResponse{{Src: dst, ToPort: srcPort, DelayMS: 1, Msg: resp}}
}

// answerChaos builds the CHAOS TXT response per the resolver's class.
func (w *World) answerChaos(p *Profile, q *dnswire.Message, qname string) *dnswire.Message {
	isBind := qname == "version.bind"
	isServer := qname == "version.server"
	if !isBind && !isServer {
		return dnswire.NewResponse(q, dnswire.RCodeNotImp)
	}
	switch p.Chaos {
	case ChaosError:
		code := dnswire.RCodeRefused
		if prand.Hash(p.Identity, 0xCE)%2 == 0 {
			code = dnswire.RCodeServFail
		}
		return dnswire.NewResponse(q, code)
	case ChaosEmptyVersion:
		return dnswire.NewResponse(q, dnswire.RCodeNoError)
	case ChaosHidden:
		resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
		resp.AddAnswer(q.Questions[0].Name, dnswire.ClassCH, 0,
			dnswire.TXT{Strings: []string{software.HiddenStrings[p.HiddenIdx]}})
		return resp
	default:
		e := software.Catalog[p.SoftwareIdx]
		text := e.Bind
		if isServer {
			text = e.Server
		}
		resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
		resp.AddAnswer(q.Questions[0].Name, dnswire.ClassCH, 0, dnswire.TXT{Strings: []string{text}})
		return resp
	}
}

// answerPTR resolves reverse lookups against the world's rDNS.
func (w *World) answerPTR(q *dnswire.Message, qname string) *dnswire.Message {
	u, ok := ParsePTRName(qname)
	if !ok {
		return dnswire.NewResponse(q, dnswire.RCodeNXDomain)
	}
	name := w.RDNS(w.Mask(u))
	if name == "" {
		return dnswire.NewResponse(q, dnswire.RCodeNXDomain)
	}
	resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
	resp.AddAnswer(q.Questions[0].Name, dnswire.ClassIN, 3600, dnswire.PTR{Target: name})
	return resp
}

// snoopedTLDIndex returns the index of a snooped TLD, or -1.
func snoopedTLDIndex(qname string) int {
	for i, tld := range domains.SnoopedTLDs {
		if qname == tld {
			return i
		}
	}
	return -1
}

// answerSnoop renders the resolver's cache view for a snooping probe.
func (w *World) answerSnoop(p *Profile, q *dnswire.Message, qname string, tldIdx int, src uint32, toPort uint16, delay int, t Time, seq int) []QueryResponse {
	// Daily-churn hosts drop out of reach partway through the window.
	sa := snoopState(p, tldIdx, t.AbsSeconds(), seq)
	if !sa.Responded {
		return nil
	}
	resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
	if sa.Empty || !sa.Cached {
		return []QueryResponse{{Src: src, ToPort: toPort, DelayMS: delay, Msg: resp}}
	}
	for i := 0; i < 2; i++ {
		resp.AddAnswer(q.Questions[0].Name, dnswire.ClassIN, sa.TTL,
			dnswire.NS{Host: nsHostName(qname, i)})
	}
	return []QueryResponse{{Src: src, ToPort: toPort, DelayMS: delay, Msg: resp}}
}

func nsHostName(tld string, i int) string {
	return "ns" + string(rune('1'+i)) + ".nic." + strings.ReplaceAll(tld, ".", "-") + ".example"
}

// answerA synthesizes the resolver's answer for an A query, applying
// censorship policy and the manipulation profile. qname is canonical and
// (d, listed) its domains.ByName entry: the caller looks both up once.
func (w *World) answerA(p *Profile, q *dnswire.Message, qname string, d domains.Domain, listed bool, dst, src uint32, toPort uint16, delay int, t Time) []QueryResponse {
	question := q.Questions[0]
	emit := func(m *dnswire.Message) []QueryResponse {
		return []QueryResponse{{Src: src, ToPort: toPort, DelayMS: delay, Msg: m}}
	}
	withAddrs := func(addrs ...uint32) *dnswire.Message {
		resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
		for _, a := range addrs {
			var addr = w.Addr(a)
			if IsLANAddr(a) {
				addr = lanAddr(a)
			}
			resp.AddAnswer(question.Name, dnswire.ClassIN, answerTTL, dnswire.A{Addr: addr})
		}
		return resp
	}

	// Censorship takes precedence: it is enforced upstream of the
	// resolver's own behavior.
	switch mode, landing := w.censorDecision(p, qname, d.Category); mode {
	case CensorLanding:
		return emit(withAddrs(landing))
	case CensorGFW:
		out := emit(withAddrs(landing)) // poisoned/injected answer, never signed
		if p.GFWDouble {
			legit, _ := w.LegitAddrs(qname, p.Country)
			second := withAddrs(legit...)
			w.signAnswer(second, qname)
			out = append(out, QueryResponse{Src: src, ToPort: toPort, DelayMS: delay + 4, Msg: second})
		}
		return out
	}

	id := p.Identity

	switch p.Manip {
	case ManipEmptyAll:
		return emit(dnswire.NewResponse(q, dnswire.RCodeNoError))
	case ManipStaticIP:
		return emit(withAddrs(w.staticAnswerAddr(id)))
	case ManipSelfIP:
		return emit(withAddrs(dst))
	case ManipCaptiveLAN:
		if prand.UnitOf(id, 0xCA9) < 0.5 {
			return emit(withAddrs(w.infra.addrOf(RoleLoginPortal, int(prand.Hash(id, 0xCAA)%nLoginPortal))))
		}
		return emit(withAddrs(lanBase + 1 + uint32(prand.Hash(id, 0xCAB)%4)))
	case ManipWildPark:
		return emit(withAddrs(w.infra.addrOf(RoleParking, int(prand.Hash(id, 0x9A4)%nParking))))
	case ManipStaleMis:
		v := prand.UnitOf(id, 0x57A1E, hashString(qname))
		switch {
		case v < 0.60:
			return emit(withAddrs(w.infra.addrOf(RoleErrorPage, int(prand.Hash(id, hashString(qname))%nErrorPage))))
		case v < 0.85:
			return emit(withAddrs(w.infra.addrOf(RoleDeadCDN, int(prand.Hash(id, 0xDEAD)%nDeadCDN))))
		default:
			sib := (dst &^ 0xFF) | uint32(prand.Hash(id, 0x24)%250)
			return emit(withAddrs(w.Mask(sib)))
		}
	case ManipNSOnly:
		resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
		resp.AddAuthority(question.Name, dnswire.ClassIN, answerTTL, dnswire.NS{Host: "ns1." + qname})
		return emit(resp)
	case ManipProtect:
		if listed && d.Category == domains.Malware {
			if prand.UnitOf(id, 0x9207) < 0.7 {
				return emit(dnswire.NewResponse(q, dnswire.RCodeNoError))
			}
			return emit(withAddrs(w.infra.addrOf(RoleBlockPage, int(prand.Hash(id, 0x9208)%nBlockPage))))
		}
	case ManipNXMonetize:
		if w.monetizes(qname, d, listed, id) {
			return emit(withAddrs(w.monetizeAddr(id, qname)))
		}
	case ManipMailRedir:
		if listed && d.Category == domains.MX {
			return emit(withAddrs(w.infra.addrOf(RoleMailSniff, int(prand.Hash(id, 0x3A11)%nMailSniff))))
		}
	case ManipAdRedirect:
		if listed && d.Category == domains.Ads {
			if prand.Hash(id, 0xAD)%2 == 0 {
				return emit(withAddrs(w.infra.addrOf(RoleAdInjectHTML, int(prand.Hash(id, 0xAD1)%nAdInjHTML))))
			}
			return emit(withAddrs(w.infra.addrOf(RoleAdInjectJS, int(prand.Hash(id, 0xAD2)%nAdInjJS))))
		}
	case ManipAdBlock:
		if listed && d.Category == domains.Ads {
			return emit(withAddrs(w.infra.addrOf(RoleAdBlockEmpty, int(prand.Hash(id, 0xADB)%nAdBlock))))
		}
	case ManipAdFakeSearch:
		if qname == "google.com" || qname == "bing.com" || qname == "duckduckgo.com" {
			return emit(withAddrs(w.infra.addrOf(RoleAdFakeSearch, int(prand.Hash(id, 0xADF)%nAdFake))))
		}
	case ManipProxyTLS:
		return emit(withAddrs(w.infra.addrOf(RoleProxyTLS, int(prand.Hash(id, 0x960)%nProxyTLS))))
	case ManipProxyPlain:
		return emit(withAddrs(w.infra.addrOf(RoleProxyPlain, int(prand.Hash(id, 0x961)%nProxyPlain))))
	case ManipPhishPayPal:
		if qname == "paypal.com" {
			return emit(withAddrs(w.infra.addrOf(RolePhishPayPal, int(prand.Hash(id, 0xF15)%nPhishPayPal))))
		}
	case ManipPhishBankBR:
		if qname == "intesasanpaolo.it" {
			return emit(withAddrs(w.infra.addrOf(RolePhishBankBR, 0)))
		}
	case ManipPhishBankRU:
		if qname == "intesasanpaolo.it" {
			return emit(withAddrs(w.infra.addrOf(RolePhishBankRU, 0)))
		}
	case ManipPhishOther:
		if listed && d.Category == domains.Banking && prand.UnitOf(id, 0xF16, hashString(qname)) < 0.12 {
			return emit(withAddrs(w.infra.addrOf(RolePhishOther, int(prand.Hash(id, 0xF17, hashString(qname))%nPhishOther))))
		}
	case ManipMalware:
		if isUpdateDomain(qname) {
			return emit(withAddrs(w.infra.addrOf(RoleMalware, int(prand.Hash(id, 0x3A1)%nMalware))))
		}
	}

	// Honest resolution (possibly with per-domain quirks).
	if role, prob := domainQuirk(qname); prob > 0 && prand.UnitOf(id, 0x2B1, hashString(qname)) < prob {
		return emit(withAddrs(w.infra.addrOf(role, int(prand.Hash(id, 0x2B2)%uint64(w.infra.rangeSize(role))))))
	}
	addrs, rc := w.LegitAddrs(qname, p.Country)
	if rc == dnswire.RCodeNXDomain {
		// A share of resolvers translates NXDOMAIN into empty NOERROR.
		if prand.UnitOf(id, 0x88F) < 0.3 {
			return emit(dnswire.NewResponse(q, dnswire.RCodeNoError))
		}
		return emit(dnswire.NewResponse(q, dnswire.RCodeNXDomain))
	}
	resp := withAddrs(addrs...)
	w.signAnswer(resp, qname)
	return emit(resp)
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
	if d.Category == domains.Malware && prand.UnitOf(hashString(qname), 0x6D1) < 0.46 {
		return true
	}
	return false
}

// monetizeAddr picks the landing type of an NX-monetizing resolver,
// matching the NX column of Table 5 (Search 35.7%, Parking 23.2%, HTTP
// Error 24.7%, Misc 8.5%, Login 2.8%, Blocking ~2%).
func (w *World) monetizeAddr(id uint64, qname string) uint32 {
	v := prand.UnitOf(id, 0x6D2)
	h := int(prand.Hash(id, 0x6D3, hashString(qname)))
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

// isUpdateDomain matches the software-update domains the malware
// droppers impersonate (Adobe Flash and Java update pages).
func isUpdateDomain(qname string) bool {
	switch qname {
	case "update.adobe.example", "ardownload.adobe.example",
		"update.oracle.example", "windowsupdate.com", "update.microsoft.com":
		return true
	}
	return false
}

// lanAddr renders RFC1918 answers without folding them into the world
// space (they must look like real LAN addresses to the client).
func lanAddr(u uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
}
