// Package fetch is step ❹ of the processing chain (§3.5): it impersonates
// a client using the returned (possibly bogus) addresses — requesting
// HTTP(S) content with the original domain in the Host header, following
// up to two redirect/iframe hops (resolving new names at the resolver
// that produced the tuple), and collecting IMAP/POP3/SMTP banners for the
// MX domain set.
package fetch

import (
	"strings"

	"goingwild/internal/dnswire"
	"goingwild/internal/websim"
	"goingwild/internal/wildnet"
)

// Result is one acquisition outcome.
type Result struct {
	// OK reports that HTTP payload was obtained.
	OK     bool
	Status int
	Body   string
	// NoPayload explains a missing payload: "lan" for RFC1918
	// addresses, "no-service" for connection failures.
	NoPayload string
	// Hops counts followed redirects.
	Hops int
	// FinalIP is the address that served the final payload.
	FinalIP uint32
}

// Client acquires content through the simulated application layer.
type Client struct {
	// Web is the application layer.
	Web *websim.Server
	// ResolveAt resolves names at the resolver that produced the
	// original tuple, as the paper does for redirect targets.
	ResolveAt func(resolver uint32, name string) ([]uint32, bool)
	// MaxHops bounds redirect following (the paper follows 2).
	MaxHops int
}

// NewClient builds an acquisition client.
func NewClient(web *websim.Server, resolveAt func(resolver uint32, name string) ([]uint32, bool)) *Client {
	return &Client{Web: web, ResolveAt: resolveAt, MaxHops: 2}
}

// Fetch requests the content a client would see when the resolver claims
// domain name lives at ip.
func (c *Client) Fetch(name string, ip uint32, resolver uint32) Result {
	res := Result{FinalIP: ip}
	host := dnswire.CanonicalName(name)
	for hop := 0; ; hop++ {
		if wildnet.IsLANAddr(ip) {
			res.NoPayload = "lan"
			return res
		}
		resp, ok := c.Web.HTTP(ip, host, false)
		if !ok {
			res.NoPayload = "no-service"
			return res
		}
		if resp.Redirect != "" && hop < c.MaxHops {
			nextHost, nextIP, ok := c.resolveRedirect(resp.Redirect, resolver)
			if ok {
				host, ip = nextHost, nextIP
				res.Hops++
				res.FinalIP = ip
				continue
			}
		}
		res.OK = true
		res.Status = resp.Status
		res.Body = resp.Body
		res.FinalIP = ip
		return res
	}
}

// resolveRedirect parses a Location target and resolves its host at the
// original resolver.
func (c *Client) resolveRedirect(location string, resolver uint32) (string, uint32, bool) {
	loc := strings.TrimPrefix(strings.TrimPrefix(location, "https://"), "http://")
	loc = strings.TrimPrefix(loc, "//")
	host := loc
	if i := strings.IndexByte(host, '/'); i >= 0 {
		host = host[:i]
	}
	if host == "" || c.ResolveAt == nil {
		return "", 0, false
	}
	addrs, ok := c.ResolveAt(resolver, host)
	if !ok || len(addrs) == 0 {
		return "", 0, false
	}
	return dnswire.CanonicalName(host), addrs[0], true
}

// MailBanner grabs the banner of ip on one of the mail protocols
// ("imap", "pop3", "smtp").
func (c *Client) MailBanner(ip uint32, proto string) (string, bool) {
	return c.Web.MailBanner(ip, proto)
}

// CertProbe exposes the TLS probe for the prefilter wiring.
func (c *Client) CertProbe(ip uint32, serverName string, sni bool) (websim.Cert, bool) {
	return c.Web.Certificate(ip, serverName, sni)
}

// TLSValid summarizes the TLS probe for the case-study detectors: does ip
// speak TLS for host, and with what kind of certificate.
func (c *Client) TLSValid(ip uint32, host string) (valid, selfSigned, ok bool) {
	cert, ok := c.Web.Certificate(ip, host, true)
	if !ok {
		return false, false, false
	}
	return cert.Valid, cert.SelfSigned, true
}

// Detonate downloads an executable from ip and reports whether dynamic
// analysis flags it as a malware downloader (the paper's Sandnet role).
func (c *Client) Detonate(ip uint32, path string) (malicious, ok bool) {
	payload, ok := c.Web.Download(ip, path)
	if !ok {
		return false, false
	}
	return websim.IsMalwareSample(payload), true
}
