package websim

import (
	"fmt"
	"strings"

	"goingwild/internal/devices"
	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/wildnet"
)

// Response is one HTTP exchange result.
type Response struct {
	Status int
	Server string // Server header
	Body   string
	// Redirect carries a Location target for 3xx responses; the fetch
	// stage follows at most two hops (§3.5).
	Redirect string
}

// Cert is the TLS certificate metadata the prefilter's HTTPS probe
// inspects (§3.4): two requests per (domain, ip) pair, with and without
// SNI.
type Cert struct {
	Valid      bool
	SelfSigned bool
	CommonName string
	DNSNames   []string
}

// CoversName reports whether the certificate is valid for a host name.
func (c Cert) CoversName(host string) bool {
	if !c.Valid {
		return false
	}
	cn := dnswire.CanonicalName(host)
	for _, n := range c.DNSNames {
		n = dnswire.CanonicalName(n)
		if n == cn {
			return true
		}
		if strings.HasPrefix(n, "*.") && strings.HasSuffix(cn, n[1:]) {
			return true
		}
	}
	return dnswire.CanonicalName(c.CommonName) == cn
}

// Server simulates the application layer of a world.
type Server struct {
	w *wildnet.World
	t wildnet.Time
}

// New builds a content server over a world at a simulation time.
func New(w *wildnet.World, t wildnet.Time) *Server {
	return &Server{w: w, t: t}
}

// SetTime moves the server's clock.
func (s *Server) SetTime(t wildnet.Time) { s.t = t }

// HTTP performs one request to ip with the given Host header. ok is
// false when nothing answers on the port (connection refused/timeout) —
// the 11.1% of tuples without HTTP payload (§4.2).
func (s *Server) HTTP(ip uint32, host string, useTLS bool) (Response, bool) {
	if wildnet.IsLANAddr(ip) {
		return Response{}, false // LAN addresses are unreachable from the vantage
	}
	ip = s.w.Mask(ip)
	host = dnswire.CanonicalName(host)
	role, slot := s.w.RoleOf(ip)
	switch role {
	case wildnet.RoleNone:
		return s.deviceHTTP(ip)
	case wildnet.RoleSiteHost:
		return s.siteHostHTTP(ip, slot, host)
	case wildnet.RoleCDNNode:
		if d, ok := domains.ByName(host); ok && (d.Kind == domains.KindCDN || d.Kind == domains.KindOrdinary) {
			return Response{Status: 200, Server: "cdn-edge", Body: s.contentFor(host)}, true
		}
		return Response{Status: 404, Server: "cdn-edge", Body: "<html><title>404</title>no such object</html>"}, true
	case wildnet.RoleDeadCDN:
		return Response{}, false
	case wildnet.RoleCensorPage:
		return Response{Status: 200, Server: "filter-gw", Body: censorPage(wildnet.CensorPageCountry(slot), slot)}, true
	case wildnet.RoleBlockPage:
		return Response{Status: 200, Server: "shield", Body: blockPage(slot)}, true
	case wildnet.RoleParking:
		return Response{Status: 200, Server: "parking", Body: parkingPage(host, slot)}, true
	case wildnet.RoleSearchPage:
		return Response{Status: 200, Server: "websearch", Body: searchLandingPage(host, slot)}, true
	case wildnet.RoleAdInjectHTML:
		return Response{Status: 200, Server: "adsrv", Body: adInjectHTML(host, slot)}, true
	case wildnet.RoleAdInjectJS:
		return Response{Status: 200, Server: "adsrv", Body: adInjectJS(host, slot)}, true
	case wildnet.RoleAdBlockEmpty:
		return Response{Status: 200, Server: "blackhole", Body: adBlockEmpty()}, true
	case wildnet.RoleAdFakeSearch:
		return Response{Status: 200, Server: "gws", Body: fakeSearchWithAds(slot)}, true
	case wildnet.RoleProxyTLS:
		return Response{Status: 200, Server: "origin", Body: s.contentFor(host)}, true
	case wildnet.RoleProxyPlain:
		if useTLS {
			return Response{}, false // HTTPS not offered (§4.3)
		}
		return Response{Status: 200, Server: "origin", Body: s.contentFor(host)}, true
	case wildnet.RolePhishPayPal:
		if host == "paypal.com" || strings.HasSuffix(host, ".paypal.com") {
			return Response{Status: 200, Server: "Apache", Body: phishPayPal(slot)}, true
		}
		return s.notFound()
	case wildnet.RolePhishBankBR:
		if host == "intesasanpaolo.it" {
			return Response{Status: 200, Server: "Apache/2.2.3", Body: phishBank(host, "BR")}, true
		}
		return s.notFound()
	case wildnet.RolePhishBankRU:
		if host == "intesasanpaolo.it" {
			return Response{Status: 200, Server: "nginx", Body: phishBank(host, "RU")}, true
		}
		return s.notFound()
	case wildnet.RolePhishOther:
		if d, ok := domains.ByName(host); ok && d.Category == domains.Banking {
			return Response{Status: 200, Server: "Apache", Body: phishGeneric(host, slot)}, true
		}
		return s.notFound()
	case wildnet.RoleMalware:
		if domains.IsUpdateHost(host) {
			return Response{Status: 200, Server: "nginx", Body: malwareUpdatePage(host, slot)}, true
		}
		return s.notFound()
	case wildnet.RoleErrorPage:
		status, body := errorPage(slot)
		return Response{Status: status, Server: "Apache", Body: body}, true
	case wildnet.RoleLoginPortal:
		return Response{Status: 200, Server: "portal", Body: loginPortal(slot)}, true
	default:
		// AuthNS, trusted DNS, mail hosts: no web service.
		return Response{}, false
	}
}

func (s *Server) notFound() (Response, bool) {
	_, body := errorPage(0)
	return Response{Status: 404, Server: "Apache", Body: body}, true
}

// deviceHTTP serves the embedded web interface of resolver hardware.
func (s *Server) deviceHTTP(ip uint32) (Response, bool) {
	m := s.w.DeviceAt(ip, s.t)
	if m == nil {
		return Response{}, false
	}
	banner, ok := m.Banners[devices.ProtoHTTP]
	if !ok {
		return Response{}, false
	}
	status := 200
	if strings.Contains(banner, "401") {
		status = 401
	}
	return Response{Status: status, Server: m.Name, Body: routerLogin(m.Name, deviceRealm(banner, m.Name))}, true
}

// deviceRealm extracts the Basic-auth realm from the device banner, the
// token the paper's 8,194 self-IP resolvers were identified by.
func deviceRealm(banner, fallback string) string {
	const marker = "realm=\""
	if i := strings.Index(banner, marker); i >= 0 {
		rest := banner[i+len(marker):]
		if j := strings.IndexByte(rest, '"'); j > 0 {
			return rest[:j]
		}
	}
	return fallback
}

// siteHostHTTP serves ordinary hosting: the domain's page when the Host
// header matches what the slot hosts, a generic site otherwise.
func (s *Server) siteHostHTTP(ip uint32, slot int, host string) (Response, bool) {
	if d, ok := domains.ByName(host); ok && d.Kind != domains.KindNonexistent {
		legit, _ := s.w.LegitAddrs(host, "DE")
		for _, a := range legit {
			if a == ip {
				return Response{Status: 200, Server: "Apache", Body: s.contentFor(host)}, true
			}
		}
		// Wrong virtual host: shared-hosting error page.
		status, body := errorPage(6)
		return Response{Status: status, Server: "Apache", Body: body}, true
	}
	if host == domains.GroundTruth || strings.HasSuffix(host, "."+domains.ScanBase) || host == domains.ScanBase {
		return Response{Status: 200, Server: "nginx", Body: legitPage(domains.GroundTruth, s.w.Config().Seed)}, true
	}
	return Response{Status: 200, Server: "Apache", Body: genericSite(slot)}, true
}

// contentFor renders the canonical content of a scan-list domain.
func (s *Server) contentFor(host string) string {
	seed := s.w.Config().Seed
	d, ok := domains.ByName(host)
	if !ok {
		return legitPage(host, seed)
	}
	switch {
	case d.Category == domains.Banking:
		return bankingPage(host, seed)
	case host == "google.com" || host == "bing.com" || host == "duckduckgo.com" ||
		host == "baidu.com" || host == "yandex.ru":
		return searchEnginePage(host)
	case d.Category == domains.Ads:
		return adProviderPage(host, seed)
	default:
		return legitPage(host, seed)
	}
}

// genericSite renders the personal/shopping long tail behind unclassified
// responses (§5 finds the unlabeled remainder to be such sites).
func genericSite(slot int) string {
	kinds := []string{"Personal blog", "Shop", "Photo gallery", "Local club", "Recipe box"}
	k := kinds[slot%len(kinds)]
	p := &page{title: fmt.Sprintf("%s #%d", k, slot)}
	p.el("h1", "", k)
	for i := 0; i < 2+slot%3; i++ {
		p.el("article", "", fmt.Sprintf("<h2>Post %d</h2><p>Content of entry %d.</p>", i, i))
	}
	p.el("footer", "", "<a href=\"/feed.xml\">rss</a>")
	return p.render()
}

// Certificate performs the TLS probe of the prefilter: the certificate
// served at ip for serverName, with or without SNI. ok is false when the
// host offers no TLS at all.
func (s *Server) Certificate(ip uint32, serverName string, sni bool) (Cert, bool) {
	ip = s.w.Mask(ip)
	serverName = dnswire.CanonicalName(serverName)
	role, slot := s.w.RoleOf(ip)
	switch role {
	case wildnet.RoleCDNNode:
		if sni {
			return Cert{Valid: true, CommonName: serverName, DNSNames: []string{serverName, "*." + serverName}}, true
		}
		// Default certificate of the big CDN provider: the prefilter
		// accepts it by its well-known common name (§3.4).
		return Cert{Valid: true, CommonName: "static.cdn-global.example",
			DNSNames: []string{"*.cdn-global.example"}}, true
	case wildnet.RoleSiteHost:
		if d := s.siteDomain(ip, slot); d != "" {
			return Cert{Valid: true, CommonName: d, DNSNames: []string{d, "www." + d}}, true
		}
		return Cert{}, false
	case wildnet.RoleProxyTLS:
		// Transparent TLS proxies forward the origin certificate.
		return Cert{Valid: true, CommonName: serverName, DNSNames: []string{serverName}}, true
	case wildnet.RolePhishPayPal:
		if slot < 3 {
			return Cert{Valid: false, SelfSigned: true, CommonName: "paypal.com", DNSNames: []string{"paypal.com"}}, true
		}
		return Cert{}, false
	case wildnet.RoleLoginPortal:
		return Cert{Valid: false, SelfSigned: true, CommonName: "portal.local"}, true
	default:
		return Cert{}, false
	}
}

// siteDomain returns the scan-list domain hosted at a site-host address,
// if any.
func (s *Server) siteDomain(ip uint32, slot int) string {
	for _, d := range domains.List {
		if d.Kind != domains.KindOrdinary {
			continue
		}
		legit, _ := s.w.LegitAddrs(d.Name, "DE")
		for _, a := range legit {
			if a == ip {
				return d.Name
			}
		}
	}
	_ = slot
	return ""
}

// MailBanner simulates connecting to ip on an IMAP/POP3/SMTP port. proto
// is "imap", "pop3", or "smtp".
func (s *Server) MailBanner(ip uint32, proto string) (string, bool) {
	ip = s.w.Mask(ip)
	role, slot := s.w.RoleOf(ip)
	switch role {
	case wildnet.RoleMailLegit:
		provider := slot / 4
		return legitMailBanner(provider, proto), true
	case wildnet.RoleMailSniff:
		// A few sniffing hosts mirror the provider banners exactly
		// (the suspicious Gmail/Yandex mirrors of §4.3); the rest run
		// stock software.
		if slot < 8 {
			provider := 1 // gmail
			if slot >= 4 {
				provider = 5 // yandex
			}
			return legitMailBanner(provider, proto), true
		}
		switch proto {
		case "imap":
			return "* OK [CAPABILITY IMAP4rev1] Dovecot ready.", true
		case "pop3":
			return "+OK POP3 server ready", true
		default:
			return "220 mail.local ESMTP Postfix", true
		}
	default:
		return "", false
	}
}

// legitMailBanner renders the provider's genuine banner.
func legitMailBanner(provider int, proto string) string {
	names := []string{"aim", "gmail", "me", "outlook", "yahoo", "yandex"}
	if provider < 0 || provider >= len(names) {
		provider = 0
	}
	n := names[provider]
	switch proto {
	case "imap":
		return fmt.Sprintf("* OK %s IMAP4rev1 service ready (%s)", siteTitle(n), n+".example")
	case "pop3":
		return fmt.Sprintf("+OK %s POP3 service ready", siteTitle(n))
	default:
		return fmt.Sprintf("220 smtp.%s.com ESMTP ready", n)
	}
}

// Download fetches an executable from ip. The returned payload carries a
// deterministic marker instead of real code: detonation (the paper used
// the Sandnet malware analysis platform) is simulated by inspecting it.
func (s *Server) Download(ip uint32, path string) ([]byte, bool) {
	ip = s.w.Mask(ip)
	role, slot := s.w.RoleOf(ip)
	if !strings.HasSuffix(path, ".exe") {
		return nil, false
	}
	switch role {
	case wildnet.RoleMalware:
		return []byte(fmt.Sprintf("MZWILD-DOWNLOADER-SAMPLE-%02d fetches further executables", slot)), true
	case wildnet.RoleSiteHost, wildnet.RoleCDNNode:
		return []byte("MZLEGIT-INSTALLER signed by vendor"), true
	default:
		return nil, false
	}
}

// IsMalwareSample is the simulated detonation verdict: it inspects the
// planted marker the way the paper's dynamic analysis watched the sample
// download further executables.
func IsMalwareSample(payload []byte) bool {
	return strings.Contains(string(payload), "WILD-DOWNLOADER-SAMPLE")
}
