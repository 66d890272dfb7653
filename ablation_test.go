// Ablation studies for the design choices DESIGN.md calls out: what
// breaks when a pipeline ingredient is removed. Each ablation runs the
// real pipeline twice — with and without the ingredient — and asserts the
// direction and rough magnitude of the damage.
package goingwild

import (
	"context"
	"testing"

	"goingwild/internal/cluster"
	"goingwild/internal/core"
	"goingwild/internal/domains"
	"goingwild/internal/fetch"
	"goingwild/internal/htmlx"
	"goingwild/internal/prefilter"
	"goingwild/internal/websim"
	"goingwild/internal/wildnet"
)

// TestAblationCertRule removes prefilter rule (iii): without the HTTPS
// certificate probe, legitimate CDN answers from foreign ASes can no
// longer be filtered and the unexpected set balloons — the exact problem
// §3.4 introduces the TLS probe to solve.
func TestAblationCertRule(t *testing.T) {
	s, err := core.NewStudy(core.DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetWeek(50)
	sweep, err := s.SweepAtContext(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	resolvers := sweep.NOERROR()
	var names []string
	for _, d := range domains.ByCategory(domains.Alexa) {
		names = append(names, d.Name)
	}
	scan, err := s.Scanner.ScanDomainsContext(context.Background(), resolvers, names)
	if err != nil {
		t.Fatal(err)
	}

	full := prefilter.Run(scan, s.PrefilterEnv(context.Background()))
	ablated := s.PrefilterEnv(context.Background())
	ablated.CertProbe = func(uint32, string, bool) (prefilter.Cert, bool) {
		return prefilter.Cert{}, false
	}
	noCert := prefilter.Run(scan, ablated)

	if len(noCert.Unexpected) <= len(full.Unexpected)*3 {
		t.Errorf("cert-rule ablation: unexpected %d → %d, want ≥3× inflation (CDN answers unfiltered)",
			len(full.Unexpected), len(noCert.Unexpected))
	}
}

// TestAblation0x20 quantifies the redundancy of §3.3: the share of
// responses that arrive on a rewritten destination port and are only
// attributable through the 0x20 casing. Dropping the encoding loses them.
func TestAblation0x20(t *testing.T) {
	s, err := core.NewStudy(core.DefaultConfig(18))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetWeek(50)
	sweep, err := s.SweepAtContext(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	resolvers := sweep.NOERROR()
	scan, err := s.Scanner.ScanDomainsContext(context.Background(), resolvers, []string{"thepiratebay.se", "chase.com"})
	if err != nil {
		t.Fatal(err)
	}
	answered, rescued := 0, 0
	for ni := range scan.Names {
		for ri := range resolvers {
			a := &scan.Answers[ni][ri]
			if !a.Answered() {
				continue
			}
			answered++
			if a.PortRewritten {
				rescued++
			}
		}
	}
	if rescued == 0 {
		t.Fatal("no responses required the 0x20 fallback")
	}
	share := float64(rescued) / float64(answered)
	if share < 0.002 || share > 0.05 {
		t.Errorf("0x20-rescued share = %.4f, want ≈ 0.01 (the port-rewriting minority)", share)
	}
}

// TestAblationDedup verifies the structural deduplication actually
// shrinks the quadratic clustering input: parking/search/error pages
// repeat per host, so representatives must be far fewer than pages.
func TestAblationDedup(t *testing.T) {
	w := wildnet.MustNewWorld(wildnet.DefaultConfig(16))
	srv := websim.New(w, wildnet.At(50))
	client := fetch.NewClient(srv, nil)
	hosts := []string{"ghoogle.com", "amason.com", "payapl.com", "twiter.com", "youtub.com"}
	var pages []*htmlx.Features
	for _, h := range hosts {
		for slot := 0; slot < 40; slot++ {
			res := client.Fetch(h, w.RoleAddr(wildnet.RoleParking, slot%16), 0)
			if res.OK {
				pages = append(pages, htmlx.Extract(res.Body))
			}
		}
	}
	if len(pages) < 100 {
		t.Fatalf("only %d pages", len(pages))
	}
	// Structural signatures collapse the set.
	sigs := map[string]bool{}
	for _, f := range pages {
		key := ""
		for _, tag := range f.TagSeq {
			key += tag + "|"
		}
		sigs[key] = true
	}
	if len(sigs)*5 > len(pages) {
		t.Errorf("dedup factor %d/%d too weak", len(pages), len(sigs))
	}
}

// BenchmarkAblationClusterNoDedup measures the cost of clustering raw
// pages without structural deduplication.
func BenchmarkAblationClusterNoDedup(b *testing.B) {
	w := wildnet.MustNewWorld(wildnet.DefaultConfig(16))
	srv := websim.New(w, wildnet.At(50))
	var pages []*htmlx.Features
	for slot := 0; slot < 50; slot++ {
		for _, h := range []string{"ghoogle.com", "amason.com", "payapl.com"} {
			if r, ok := srv.HTTP(w.RoleAddr(wildnet.RoleParking, slot%16), h, false); ok {
				pages = append(pages, htmlx.Extract(r.Body))
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := cluster.Agglomerate(len(pages), func(x, y int) float64 {
			return cluster.FeatureDistance(pages[x], pages[y])
		}, 0.3)
		if r.Num == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkAblationPrefilterNoCache measures the legitimacy cache: the
// same (domain, ip) pair is evaluated once, not once per resolver.
func BenchmarkAblationPrefilterNoCache(b *testing.B) {
	s, err := core.NewStudy(core.DefaultConfig(16))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.SetWeek(50)
	sweep, err := s.SweepAtContext(context.Background(), 50)
	if err != nil {
		b.Fatal(err)
	}
	scan, err := s.Scanner.ScanDomainsContext(context.Background(), sweep.NOERROR(), []string{"chase.com", "facebook.com"})
	if err != nil {
		b.Fatal(err)
	}
	env := s.PrefilterEnv(context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := prefilter.Run(scan, env)
		b.ReportMetric(float64(res.CacheHits), "cache_hits")
	}
}
