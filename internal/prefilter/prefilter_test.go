package prefilter

import (
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/scanner"
)

// fakeEnv builds a controllable environment: addresses 100–109 belong to
// AS 1 (the trusted home of chase.com), 200–209 to AS 2 with CDN certs,
// 300 has a verifying rDNS record, everything else is dark.
func fakeEnv() Env {
	return Env{
		TrustedResolve: func(name string) ([]uint32, dnswire.RCode) {
			switch name {
			case "chase.com":
				return []uint32{100, 101}, dnswire.RCodeNoError
			case "facebook.com":
				return []uint32{200}, dnswire.RCodeNoError
			case "ghoogle.com":
				return nil, dnswire.RCodeNXDomain
			case "mail.chase.com":
				return []uint32{300}, dnswire.RCodeNoError
			default:
				return nil, dnswire.RCodeNXDomain
			}
		},
		RDNS: func(ip uint32) (string, bool) {
			if ip == 300 {
				return "mail.chase.com", true
			}
			return "", false
		},
		ASOf: func(ip uint32) uint32 {
			switch {
			case ip >= 100 && ip < 110:
				return 1
			case ip >= 200 && ip < 210:
				return 2
			default:
				return 99
			}
		},
		CertProbe: func(ip uint32, serverName string, sni bool) (Cert, bool) {
			if ip >= 200 && ip < 210 {
				if sni {
					return Cert{Valid: true, CommonName: serverName, DNSNames: []string{serverName}}, true
				}
				return Cert{Valid: true, CommonName: "static.cdn-global.example"}, true
			}
			return Cert{}, false
		},
		TrustedCDNNames: []string{"static.cdn-global.example"},
	}
}

// buildScan assembles a synthetic scan result: one resolver per answer
// pattern.
func buildScan(name string, answers []scanner.TupleAnswer) *scanner.DomainScanResult {
	resolvers := make([]uint32, len(answers))
	for i := range resolvers {
		resolvers[i] = uint32(1000 + i)
	}
	return &scanner.DomainScanResult{
		Resolvers: resolvers,
		Names:     []string{name},
		Answers:   [][]scanner.TupleAnswer{answers},
	}
}

func TestRuleSameAS(t *testing.T) {
	scan := buildScan("chase.com", []scanner.TupleAnswer{
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{100}, Responses: 1},  // exact trusted IP
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{105}, Responses: 1},  // same AS, different IP
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{9999}, Responses: 1}, // foreign
	})
	res := Run(scan, fakeEnv())
	want := []Class{ClassLegit, ClassLegit, ClassUnexpected}
	for i, w := range want {
		if got := res.Verdicts[0][i]; got != w {
			t.Errorf("resolver %d: verdict %v, want %v", i, got, w)
		}
	}
	if len(res.Unexpected) != 1 || res.Unexpected[0].IP != 9999 {
		t.Errorf("unexpected tuples = %+v", res.Unexpected)
	}
}

func TestRuleRDNSRoundTrip(t *testing.T) {
	scan := buildScan("chase.com", []scanner.TupleAnswer{
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{300}, Responses: 1},
	})
	res := Run(scan, fakeEnv())
	if got := res.Verdicts[0][0]; got != ClassLegit {
		t.Errorf("rDNS-verified tuple = %v, want legit", got)
	}
}

func TestRuleRDNSRequiresRoundTrip(t *testing.T) {
	env := fakeEnv()
	// rDNS resembles the domain but the A record points elsewhere.
	env.RDNS = func(ip uint32) (string, bool) {
		if ip == 301 {
			return "mail.chase.com", true
		}
		return "", false
	}
	scan := buildScan("chase.com", []scanner.TupleAnswer{
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{301}, Responses: 1},
	})
	res := Run(scan, env)
	if got := res.Verdicts[0][0]; got != ClassUnexpected {
		t.Errorf("spoofed rDNS accepted: %v", got)
	}
}

func TestRuleCDNCertificate(t *testing.T) {
	// facebook.com is a CDN domain; an IP outside the trusted AS with a
	// valid SNI cert must be filtered.
	scan := buildScan("facebook.com", []scanner.TupleAnswer{
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{205}, Responses: 1},
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{777}, Responses: 1},
	})
	res := Run(scan, fakeEnv())
	if got := res.Verdicts[0][0]; got != ClassLegit {
		t.Errorf("CDN cert tuple = %v, want legit", got)
	}
	if got := res.Verdicts[0][1]; got != ClassUnexpected {
		t.Errorf("dark IP = %v, want unexpected", got)
	}
}

func TestCertRuleRestrictedToCDNKind(t *testing.T) {
	// chase.com is an ordinary domain: a matching SNI cert alone (a TLS
	// proxy's trick) must NOT whitelist a foreign IP.
	scan := buildScan("chase.com", []scanner.TupleAnswer{
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{205}, Responses: 1},
	})
	res := Run(scan, fakeEnv())
	if got := res.Verdicts[0][0]; got != ClassUnexpected {
		t.Errorf("TLS-proxied ordinary domain = %v, want unexpected", got)
	}
}

func TestNXClasses(t *testing.T) {
	scan := buildScan("ghoogle.com", []scanner.TupleAnswer{
		{RCode: dnswire.RCodeNXDomain, Responses: 1},
		{RCode: dnswire.RCodeNoError, Responses: 1},                       // empty NOERROR
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{444}, Responses: 1}, // monetized
	})
	res := Run(scan, fakeEnv())
	want := []Class{ClassEmpty, ClassEmpty, ClassUnexpected}
	for i, w := range want {
		if got := res.Verdicts[0][i]; got != w {
			t.Errorf("NX resolver %d: %v, want %v", i, got, w)
		}
	}
}

func TestErrorAndSilence(t *testing.T) {
	scan := buildScan("chase.com", []scanner.TupleAnswer{
		{RCode: dnswire.RCodeRefused, Responses: 1},
		{RCode: dnswire.RCodeServFail, Responses: 1},
		{}, // never answered
		{RCode: dnswire.RCodeNoError, NSOnly: true, Responses: 1},
	})
	res := Run(scan, fakeEnv())
	want := []Class{ClassErrorRCode, ClassErrorRCode, ClassUnanswered, ClassNSOnly}
	for i, w := range want {
		if got := res.Verdicts[0][i]; got != w {
			t.Errorf("resolver %d: %v, want %v", i, got, w)
		}
	}
}

func TestMixedAnswerSetNeedsAllLegit(t *testing.T) {
	scan := buildScan("chase.com", []scanner.TupleAnswer{
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{100, 9999}, Responses: 1},
	})
	res := Run(scan, fakeEnv())
	if got := res.Verdicts[0][0]; got != ClassUnexpected {
		t.Errorf("partially-bogus answer = %v, want unexpected", got)
	}
	// Only the bogus address lands in the unexpected tuple list.
	if len(res.Unexpected) != 1 || res.Unexpected[0].IP != 9999 {
		t.Errorf("unexpected = %+v", res.Unexpected)
	}
}

func TestLegitimacyCache(t *testing.T) {
	scan := buildScan("chase.com", []scanner.TupleAnswer{
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{100}, Responses: 1},
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{100}, Responses: 1},
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{100}, Responses: 1},
	})
	res := Run(scan, fakeEnv())
	if res.CacheHits < 2 {
		t.Errorf("cache hits = %d, want ≥ 2", res.CacheHits)
	}
}

func TestDomainStatsShares(t *testing.T) {
	scan := buildScan("chase.com", []scanner.TupleAnswer{
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{100}, Responses: 1},
		{RCode: dnswire.RCodeNoError, Addrs: []uint32{9999}, Responses: 1},
		{},
	})
	res := Run(scan, fakeEnv())
	d := res.PerDomain[0]
	if got := d.Share(ClassLegit); got != 0.5 {
		t.Errorf("legit share = %f (unanswered must not dilute)", got)
	}
	if got := d.Share(ClassUnexpected); got != 0.5 {
		t.Errorf("unexpected share = %f", got)
	}
}

func TestCertCoversName(t *testing.T) {
	c := Cert{Valid: true, CommonName: "example.com", DNSNames: []string{"*.cdn.example", "www.example.com"}}
	cases := []struct {
		host string
		want bool
	}{
		{"example.com", true},
		{"www.example.com", true},
		{"a.cdn.example", true},
		{"deep.a.cdn.example", true},
		{"other.com", false},
	}
	for _, cse := range cases {
		if got := c.CoversName(cse.host); got != cse.want {
			t.Errorf("CoversName(%q) = %v, want %v", cse.host, got, cse.want)
		}
	}
	if (Cert{Valid: false, CommonName: "x.com"}).CoversName("x.com") {
		t.Error("invalid cert covered a name")
	}
}
