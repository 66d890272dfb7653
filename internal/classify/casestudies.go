package classify

import (
	"strings"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/prefilter"
	"goingwild/internal/scanner"
)

// CaseStudies aggregates the §4.3 findings.
type CaseStudies struct {
	// Ad redirects / injections: hosts replacing or augmenting ad
	// traffic, hosts blanking ads, and search mimicries with banners.
	AdInjectIPs, AdInjectResolvers         int
	AdBlockIPs, AdBlockResolvers           int
	AdFakeSearchIPs, AdFakeSearchResolvers int
	// Transparent proxies: IPs serving original content for all
	// requested domains, split by TLS capability.
	ProxyTLSIPs, ProxyTLSResolvers     int
	ProxyPlainIPs, ProxyPlainResolvers int
	// Phishing.
	PhishPayPalIPs, PhishPayPalResolvers int
	PhishPayPalTLS                       int // self-signed HTTPS phish hosts
	PhishBankIPs, PhishBankResolvers     int
	PhishOtherIPs, PhishOtherResolvers   int
	// Mail interception.
	MailListenerIPs, MailRedirResolvers int
	MailMimicIPs                        int
	// Malware delivery.
	MalwareIPs, MalwareResolvers int
	// Injected double responses (Great Firewall signature).
	DoubleResponseResolvers int
	// Degenerate answer patterns (§4.1).
	SelfIPResolvers   int
	StaticIPResolvers int
	SameSetResolvers  int
}

// runCaseStudies executes the in-depth detectors over the acquired data.
func (p *Pipeline) runCaseStudies(scan *scanner.DomainScanResult, pre *prefilter.Result, gt *GroundTruth, pages map[pageKey]*page, tupleIP map[int]map[int]uint32) CaseStudies {
	var cs CaseStudies

	// Per-IP views for proxy detection and the ad/phish/mail studies.
	type ipView struct {
		identicalToGT int // distinct domains served byte-identical to GT
		domains       int
		resolvers     map[int]struct{}
	}
	views := map[uint32]*ipView{}
	addView := func(ip uint32, ri int) *ipView {
		v := views[ip]
		if v == nil {
			v = &ipView{resolvers: map[int]struct{}{}}
			views[ip] = v
		}
		v.resolvers[ri] = struct{}{}
		return v
	}

	adInjectIPs := map[uint32]struct{}{}
	adBlockIPs := map[uint32]struct{}{}
	adFakeIPs := map[uint32]struct{}{}
	phishPayPalIPs := map[uint32]struct{}{}
	phishPayPalTLS := map[uint32]struct{}{}
	phishBankIPs := map[uint32]struct{}{}
	phishOtherIPs := map[uint32]struct{}{}
	mailIPs := map[uint32]struct{}{}
	mailMimicIPs := map[uint32]struct{}{}
	malwareIPs := map[uint32]struct{}{}

	adInjectRes := map[int]struct{}{}
	adBlockRes := map[int]struct{}{}
	adFakeRes := map[int]struct{}{}
	phishPayPalRes := map[int]struct{}{}
	phishBankRes := map[int]struct{}{}
	phishOtherRes := map[int]struct{}{}
	mailRes := map[int]struct{}{}
	malwareRes := map[int]struct{}{}

	seenDomainPerIP := map[uint32]map[int]struct{}{}

	for ni, byRes := range tupleIP {
		cn := dnswire.CanonicalName(scan.Names[ni])
		d, _ := domains.ByName(cn)
		for ri, ip := range byRes {
			v := addView(ip, ri)
			if seenDomainPerIP[ip] == nil {
				seenDomainPerIP[ip] = map[int]struct{}{}
			}
			if _, dup := seenDomainPerIP[ip][ni]; !dup {
				seenDomainPerIP[ip][ni] = struct{}{}
				v.domains++
				pg := pages[pageKey{ni, ip}]
				if pg.res.OK && gt.Bodies[cn] != "" && pg.res.Body == gt.Bodies[cn] {
					v.identicalToGT++
				}
			}
			pg := pages[pageKey{ni, ip}]

			// Mail interception: redirected MX hosts that listen.
			if d.Category == domains.MX {
				if banner, ok := p.Client.MailBanner(ip, mailProtoOf(cn)); ok {
					mailIPs[ip] = struct{}{}
					mailRes[ri] = struct{}{}
					if gtb := gt.MailBanners[cn]; gtb != "" && banner == gtb {
						mailMimicIPs[ip] = struct{}{}
					}
				}
				continue
			}
			if !pg.res.OK {
				continue
			}
			body := pg.res.Body

			// Ad manipulation.
			if d.Category == domains.Ads && gt.Bodies[cn] != "" && body != gt.Bodies[cn] {
				switch {
				case strings.Contains(body, "placeholder"):
					adBlockIPs[ip] = struct{}{}
					adBlockRes[ri] = struct{}{}
				case strings.Contains(body, "<img") || strings.Contains(body, "<iframe"),
					strings.Contains(body, "createElement('script')"):
					adInjectIPs[ip] = struct{}{}
					adInjectRes[ri] = struct{}{}
				}
			}
			if domains.IsSearchFront(cn) && hasPasswordInput(body) == false &&
				strings.Contains(body, "Search") && strings.Contains(body, "banner") {
				adFakeIPs[ip] = struct{}{}
				adFakeRes[ri] = struct{}{}
			}

			// Phishing: credential-bearing lookalikes of banking sites.
			if cn == "paypal.com" && looksLikePhish(body, gt.Bodies[cn]) {
				phishPayPalIPs[ip] = struct{}{}
				phishPayPalRes[ri] = struct{}{}
				if valid, selfSigned, ok := p.Client.TLSValid(ip, cn); ok && selfSigned && !valid {
					phishPayPalTLS[ip] = struct{}{}
				}
			} else if cn == "intesasanpaolo.it" && looksLikePhish(body, gt.Bodies[cn]) {
				phishBankIPs[ip] = struct{}{}
				phishBankRes[ri] = struct{}{}
			} else if d.Category == domains.Banking && looksLikePhish(body, gt.Bodies[cn]) {
				phishOtherIPs[ip] = struct{}{}
				phishOtherRes[ri] = struct{}{}
			}

			// Malware delivery on update domains.
			if domains.IsUpdateHost(cn) && strings.Contains(body, ".exe") {
				if malicious, ok := p.Client.Detonate(ip, "/flash_update.exe"); ok && malicious {
					malwareIPs[ip] = struct{}{}
					malwareRes[ri] = struct{}{}
				}
			}
		}
	}

	// Transparent proxies: an IP that served GT-identical content for
	// at least three distinct domains proxies everything.
	for ip, v := range views {
		if v.identicalToGT < 3 {
			continue
		}
		if valid, _, ok := p.Client.TLSValid(ip, "chase.com"); ok && valid {
			cs.ProxyTLSIPs++
			cs.ProxyTLSResolvers += len(v.resolvers)
		} else {
			cs.ProxyPlainIPs++
			cs.ProxyPlainResolvers += len(v.resolvers)
		}
	}

	cs.AdInjectIPs, cs.AdInjectResolvers = len(adInjectIPs), len(adInjectRes)
	cs.AdBlockIPs, cs.AdBlockResolvers = len(adBlockIPs), len(adBlockRes)
	cs.AdFakeSearchIPs, cs.AdFakeSearchResolvers = len(adFakeIPs), len(adFakeRes)
	cs.PhishPayPalIPs, cs.PhishPayPalResolvers = len(phishPayPalIPs), len(phishPayPalRes)
	cs.PhishPayPalTLS = len(phishPayPalTLS)
	cs.PhishBankIPs, cs.PhishBankResolvers = len(phishBankIPs), len(phishBankRes)
	cs.PhishOtherIPs, cs.PhishOtherResolvers = len(phishOtherIPs), len(phishOtherRes)
	cs.MailListenerIPs, cs.MailRedirResolvers = len(mailIPs), len(mailRes)
	cs.MailMimicIPs = len(mailMimicIPs)
	cs.MalwareIPs, cs.MalwareResolvers = len(malwareIPs), len(malwareRes)

	// Double responses and degenerate answer patterns come from the raw
	// scan data.
	doubles := map[int]struct{}{}
	selfIP := map[int]int{}
	answersByResolver := map[int]map[int]string{}
	for ni := range scan.Names {
		for ri := range scan.Resolvers {
			a := &scan.Answers[ni][ri]
			if a.Responses > 1 {
				doubles[ri] = struct{}{}
			}
			if pre.Verdicts[ni][ri] != prefilter.ClassUnexpected {
				continue
			}
			for _, ip := range a.Addrs {
				if ip == scan.Resolvers[ri] {
					selfIP[ri]++
					break
				}
			}
			if answersByResolver[ri] == nil {
				answersByResolver[ri] = map[int]string{}
			}
			answersByResolver[ri][ni] = addrSetKey(a.Addrs)
		}
	}
	cs.DoubleResponseResolvers = len(doubles)
	for _, n := range selfIP {
		if n >= 2 {
			cs.SelfIPResolvers++
		}
	}
	for _, byName := range answersByResolver {
		if len(byName) < 2 {
			continue
		}
		sets := map[string]int{}
		for _, key := range byName {
			sets[key]++
		}
		for _, n := range sets {
			if n >= 2 {
				cs.SameSetResolvers++
				break
			}
		}
		if len(sets) == 1 && len(byName) >= 5 {
			cs.StaticIPResolvers++
		}
	}
	return cs
}

// looksLikePhish flags credential-capturing lookalikes: a page that
// differs from the ground truth but carries a login form posting to a PHP
// collector, or the image-reconstruction trick (§4.3: 46 <img> tags plus
// an HTML form forwarding credentials to a php file).
func looksLikePhish(body, gtBody string) bool {
	if gtBody != "" && body == gtBody {
		return false
	}
	post := strings.Contains(body, "method=\"POST\"")
	php := strings.Contains(body, ".php")
	imgs := strings.Count(body, "<img")
	if post && php && imgs >= 30 {
		return true
	}
	if php && (hasPasswordInput(body) || strings.Contains(body, "collect")) {
		return true
	}
	// Injected collector script on an otherwise genuine-looking page.
	if strings.Contains(body, "collector-") {
		return true
	}
	return false
}

func addrSetKey(addrs []uint32) string {
	var sb strings.Builder
	for _, a := range addrs {
		sb.WriteByte(byte(a >> 24))
		sb.WriteByte(byte(a >> 16))
		sb.WriteByte(byte(a >> 8))
		sb.WriteByte(byte(a))
	}
	return sb.String()
}
