// Package websim synthesizes the application-layer content behind every
// address of the virtual Internet: the legitimate websites of the scanned
// domains, censorship landing pages, parking and search pages, router
// login screens, phishing lookalikes, transparent proxies, malware
// droppers, and the IMAP/POP3/SMTP banners of the mail study (§3.5/§4).
//
// Pages are deterministic functions of (role, domain, address) and are
// built from the structural features the clustering distance measures:
// tag sequences, titles, script bodies, and src/href attribute sets.
package websim

import (
	"fmt"
	"strings"

	"goingwild/internal/prand"
)

// page is a small HTML builder that keeps the generated structure regular
// enough for feature extraction while allowing per-site variation.
type page struct {
	title   string
	head    []string
	body    []string
	scripts []string
}

func (p *page) addScript(js string) { p.scripts = append(p.scripts, js) }

func (p *page) el(tag, attrs, inner string) {
	if attrs != "" {
		attrs = " " + attrs
	}
	p.body = append(p.body, fmt.Sprintf("<%s%s>%s</%s>", tag, attrs, inner, tag))
}

func (p *page) raw(html string) { p.body = append(p.body, html) }

func (p *page) render() string {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&sb, "<title>%s</title>\n", p.title)
	for _, h := range p.head {
		sb.WriteString(h)
		sb.WriteString("\n")
	}
	sb.WriteString("</head>\n<body>\n")
	for _, b := range p.body {
		sb.WriteString(b)
		sb.WriteString("\n")
	}
	for _, js := range p.scripts {
		fmt.Fprintf(&sb, "<script type=\"text/javascript\">%s</script>\n", js)
	}
	sb.WriteString("</body>\n</html>\n")
	return sb.String()
}

// legitPage renders the canonical representation of a scan-list domain.
// Structure varies by site category so clusters separate cleanly, and a
// per-domain hash varies link/resource sets within a category.
func legitPage(domain string, seed uint64) string {
	h := prand.Hash(seed, 0x9A6E, prand.FNV(domain))
	p := &page{title: siteTitle(domain)}
	p.head = append(p.head, fmt.Sprintf("<link rel=\"stylesheet\" href=\"/static/%s/main.css\">", domain))
	p.raw(fmt.Sprintf("<div id=\"header\"><img src=\"//%s/logo.png\" alt=\"%s\"></div>", domain, domain))
	nav := []string{"home", "about", "products", "news", "contact", "help", "blog", "careers"}
	links := make([]string, 0, 5)
	base := int(h % uint64(len(nav)))
	for i := 0; i < 5; i++ {
		item := nav[(base+i*3)%len(nav)]
		links = append(links, fmt.Sprintf("<a href=\"//%s/%s\">%s</a>", domain, item, item))
	}
	p.el("nav", "id=\"nav\"", strings.Join(links, " "))
	for i := 0; i < 3+int(h%4); i++ {
		p.el("section", fmt.Sprintf("class=\"content c%d\"", i),
			fmt.Sprintf("<h2>Section %d</h2><p>Welcome to %s, your trusted destination.</p><img src=\"//%s/img/%d.jpg\">", i, domain, domain, i))
	}
	p.el("footer", "", fmt.Sprintf("<a href=\"//%s/terms\">terms</a> <a href=\"//%s/privacy\">privacy</a> &copy; %s", domain, domain, domain))
	p.addScript(fmt.Sprintf("var site=%q;function init(){document.getElementById('nav').className='ready';}window.onload=init;", domain))
	p.addScript(fmt.Sprintf("(function(){var m=new Image();m.src='//metrics.%s/beacon?v=%d';})();", domain, h%97))
	return p.render()
}

// bankingPage renders a login-bearing banking site; the phishing
// detectors compare unknown pages against this representation.
func bankingPage(domain string, seed uint64) string {
	p := &page{title: siteTitle(domain) + " - Online Banking"}
	p.head = append(p.head, fmt.Sprintf("<link rel=\"stylesheet\" href=\"https://%s/assets/bank.css\">", domain))
	p.raw(fmt.Sprintf("<div id=\"brand\"><img src=\"https://%s/logo.svg\"></div>", domain))
	p.el("h1", "", "Secure Sign-In")
	p.raw(fmt.Sprintf("<form id=\"login\" action=\"https://%s/auth/login\" method=\"POST\">"+
		"<input type=\"text\" name=\"user\"><input type=\"password\" name=\"pass\">"+
		"<button type=\"submit\">Log in</button></form>", domain))
	p.el("div", "class=\"security\"", "Your connection is protected with TLS. Never share your credentials.")
	p.el("footer", "", fmt.Sprintf("<a href=\"https://%s/security\">security center</a> <a href=\"https://%s/contact\">contact</a>", domain, domain))
	p.addScript("function validate(f){return f.user.value.length>0&&f.pass.value.length>0;}")
	p.addScript(fmt.Sprintf("var csrf=%q;", fmt.Sprintf("%x", prand.Hash(seed, prand.FNV(domain), 0xC54F))))
	return p.render()
}

// searchEnginePage renders the big search engines' front page.
func searchEnginePage(domain string) string {
	p := &page{title: siteTitle(domain)}
	p.raw(fmt.Sprintf("<div id=\"logo\"><img src=\"//%s/images/logo.png\"></div>", domain))
	p.raw(fmt.Sprintf("<form action=\"//%s/search\" method=\"GET\"><input type=\"text\" name=\"q\"><button>Search</button></form>", domain))
	p.el("div", "id=\"links\"", fmt.Sprintf("<a href=\"//%s/advanced\">advanced</a> <a href=\"//%s/preferences\">preferences</a>", domain, domain))
	p.addScript("document.forms[0].q.focus();")
	return p.render()
}

// adProviderPage renders what legitimate ad-provider hosts serve: a thin
// JavaScript delivery payload.
func adProviderPage(domain string, seed uint64) string {
	p := &page{title: "ad delivery"}
	p.addScript(fmt.Sprintf("var adNetwork=%q;function deliver(slot){var e=document.createElement('iframe');e.src='//%s/creative?slot='+slot;document.body.appendChild(e);}", domain, domain))
	p.addScript(fmt.Sprintf("var campaign=%d;deliver(campaign%%8);", prand.Hash(seed, prand.FNV(domain))%1000))
	return p.render()
}

// siteTitle derives a human title from a domain name.
func siteTitle(domain string) string {
	base := domain
	if i := strings.IndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	if base == "" {
		return domain
	}
	return strings.ToUpper(base[:1]) + base[1:]
}
