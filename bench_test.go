// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md's per-experiment index). Each benchmark runs the full
// measurement for its artifact against a scaled-down world; custom
// metrics report the domain quantities (probes/s, resolvers found) next
// to the usual ns/op.
package goingwild

import (
	"context"
	"fmt"
	"testing"

	"goingwild/internal/analysis"
	"goingwild/internal/churn"
	"goingwild/internal/cluster"
	"goingwild/internal/core"
	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/fingerprint"
	"goingwild/internal/geodb"
	"goingwild/internal/htmlx"
	"goingwild/internal/lfsr"
	"goingwild/internal/snoop"
	"goingwild/internal/websim"
	"goingwild/internal/wildnet"
)

func benchStudy(b *testing.B, order uint) *core.Study {
	b.Helper()
	s, err := core.NewStudy(core.DefaultConfig(order))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// run runs the one experiment add puts on a fresh plan of s and returns
// its result and the plan, whose census it read.
func run[T any](b *testing.B, s *core.Study, add func(*core.Plan) *core.Out[T]) (T, *core.Plan) {
	b.Helper()
	p := s.NewPlan()
	out := add(p)
	if err := p.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	return out.V, p
}

// domainStudy runs steps ❶–❻ at week 50 for cats (nil: all 13).
func domainStudy(b *testing.B, s *core.Study, cats []domains.Category) *core.DomainStudyResult {
	b.Helper()
	res, _ := run(b, s, func(p *core.Plan) *core.Out[*core.DomainStudyResult] { return p.DomainStudy(50, cats) })
	return res
}

// BenchmarkFigure1WeeklyScans regenerates E1: the weekly responder series
// with its NOERROR/REFUSED/SERVFAIL breakdown.
func BenchmarkFigure1WeeklyScans(b *testing.B) {
	cfg := core.DefaultConfig(16)
	cfg.Weeks = 4
	s, err := core.NewStudy(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, _ := run(b, s, func(p *core.Plan) *core.Out[*churn.Series] { return p.WeeklySeries(nil) })
		if series.First().Total == 0 {
			b.Fatal("empty scan")
		}
		b.ReportMetric(float64(series.First().Total), "responders")
	}
}

// BenchmarkTable1CountryFluctuation regenerates E2/E3: first and last
// weekly scans grouped by country and registry.
func BenchmarkTable1CountryFluctuation(b *testing.B) {
	s := benchStudy(b, 17)
	for i := 0; i < b.N; i++ {
		series := endpointSeries(b, s)
		rows := series.CountryFluctuation(10)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable2RIRFluctuation regenerates E3.
func BenchmarkTable2RIRFluctuation(b *testing.B) {
	s := benchStudy(b, 17)
	for i := 0; i < b.N; i++ {
		series := endpointSeries(b, s)
		if len(series.RIRFluctuation()) != 5 {
			b.Fatal("missing registries")
		}
	}
}

func endpointSeries(b *testing.B, s *core.Study) *churn.Series {
	b.Helper()
	series := &churn.Series{}
	for _, week := range []int{0, 55} {
		res, err := s.SweepAtContext(context.Background(), week)
		if err != nil {
			b.Fatal(err)
		}
		obs := churn.WeekObservation{Week: week, Total: res.Total(),
			ByRCode: res.ByRCode, ByCountry: map[string]int{}, ByRIR: map[geodb.RIR]int{}}
		for _, r := range res.Responders {
			l := s.World.Geo().LookupU32(r.Addr)
			obs.ByCountry[l.Country]++
			obs.ByRIR[l.RIR]++
		}
		series.Weeks = append(series.Weeks, obs)
	}
	return series
}

// BenchmarkTable3ChaosFingerprint regenerates E4: the CHAOS software
// survey.
func BenchmarkTable3ChaosFingerprint(b *testing.B) {
	s := benchStudy(b, 17)
	for i := 0; i < b.N; i++ {
		survey, p := run(b, s, func(p *core.Plan) *core.Out[*fingerprint.ChaosSurvey] { return p.Chaos(46) })
		if survey.Responded == 0 {
			b.Fatal("no responders")
		}
		b.ReportMetric(float64(len(p.Census(46).Resolvers)), "resolvers")
		b.ReportMetric(100*survey.VersionedShare(), "versioned_pct")
	}
}

// BenchmarkTable4DeviceFingerprint regenerates E5: banner grabbing plus
// the regex device database.
func BenchmarkTable4DeviceFingerprint(b *testing.B) {
	s := benchStudy(b, 17)
	for i := 0; i < b.N; i++ {
		survey, _ := run(b, s, func(p *core.Plan) *core.Out[*fingerprint.DeviceSurvey] { return p.Devices(46) })
		if survey.Responsive == 0 {
			b.Fatal("no banners")
		}
		b.ReportMetric(100*float64(survey.Responsive)/float64(survey.Scanned), "tcp_pct")
	}
}

// BenchmarkFigure2IPChurn regenerates E6: the cohort survival curve.
func BenchmarkFigure2IPChurn(b *testing.B) {
	s := benchStudy(b, 16)
	for i := 0; i < b.N; i++ {
		study, _ := run(b, s, func(p *core.Plan) *core.Out[*churn.CohortStudy] { return p.Cohort(8) })
		b.ReportMetric(100*study.Day1Survival, "day1_pct")
	}
}

// BenchmarkUtilizationSnooping regenerates E7: 36 hourly probes of 15
// TLDs across the population.
func BenchmarkUtilizationSnooping(b *testing.B) {
	s := benchStudy(b, 15)
	for i := 0; i < b.N; i++ {
		res, _ := run(b, s, func(p *core.Plan) *core.Out[*snoop.Result] { return p.Utilization(43) })
		b.ReportMetric(100*float64(res.Responded)/float64(res.Scanned), "responded_pct")
	}
}

// BenchmarkPrefiltering regenerates E8: a domain-set scan plus the
// three-rule prefilter.
func BenchmarkPrefiltering(b *testing.B) {
	s := benchStudy(b, 16)
	for i := 0; i < b.N; i++ {
		res := domainStudy(b, s, []domains.Category{domains.Banking, domains.NX})
		b.ReportMetric(float64(len(res.Pre.Unexpected)), "unexpected_tuples")
	}
}

// BenchmarkTable5Classification regenerates E9: acquisition, clustering,
// and labeling over several categories.
func BenchmarkTable5Classification(b *testing.B) {
	s := benchStudy(b, 16)
	for i := 0; i < b.N; i++ {
		res := domainStudy(b, s, []domains.Category{
			domains.Adult, domains.Gambling, domains.NX, domains.Banking,
		})
		b.ReportMetric(float64(res.Report.Clusters), "clusters")
	}
}

// BenchmarkFigure4CensorshipGeo regenerates E10: the censorship geography
// of the blocked trio.
func BenchmarkFigure4CensorshipGeo(b *testing.B) {
	s := benchStudy(b, 17)
	for i := 0; i < b.N; i++ {
		res := domainStudy(b, s, []domains.Category{domains.Alexa})
		b.ReportMetric(100*res.Fig4.Unexpected["CN"], "cn_pct")
	}
}

// BenchmarkCaseStudies regenerates E11: the §4.3 detectors.
func BenchmarkCaseStudies(b *testing.B) {
	s := benchStudy(b, 16)
	for i := 0; i < b.N; i++ {
		res := domainStudy(b, s, []domains.Category{
			domains.Ads, domains.Banking, domains.MX, domains.Misc,
		})
		cs := res.Report.Cases
		b.ReportMetric(float64(cs.ProxyPlainResolvers), "proxy_resolvers")
	}
}

// BenchmarkFullPipeline regenerates E12: the complete Figure-3 chain over
// all 13 categories.
func BenchmarkFullPipeline(b *testing.B) {
	s := benchStudy(b, 16)
	for i := 0; i < b.N; i++ {
		res := domainStudy(b, s, nil)
		if res.Report.PairCount == 0 {
			b.Fatal("no pairs")
		}
		b.ReportMetric(float64(res.StageTrace[2].Count), "probes")
	}
}

// BenchmarkScanVerification regenerates E13: the secondary-vantage
// verification scan.
func BenchmarkScanVerification(b *testing.B) {
	s := benchStudy(b, 17)
	for i := 0; i < b.N; i++ {
		v, _ := run(b, s, func(p *core.Plan) *core.Out[*core.VerificationResult] { return p.Verification(50) })
		b.ReportMetric(float64(v.OnlySecondary), "only_secondary")
	}
}

// --- Component microbenchmarks ---------------------------------------

// BenchmarkSweepThroughput measures raw probe throughput of the scan
// engine over the in-memory transport.
func BenchmarkSweepThroughput(b *testing.B) {
	s := benchStudy(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Scanner.SweepContext(context.Background(), 16, uint32(i+1), s.World.ScanBlacklist())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(res.Probed))
	}
}

// BenchmarkDNSPackUnpack measures the wire codec round trip.
func BenchmarkDNSPackUnpack(b *testing.B) {
	q := dnswire.NewQuery(7, "r1.c0a80101.scan.dnsstudy.example.edu", dnswire.TypeA, dnswire.ClassIN)
	resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
	resp.AddAnswer(q.Questions[0].Name, dnswire.ClassIN, 300, dnswire.A{Addr: lfsr.U32ToAddr(0x01020304)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := resp.PackBytes()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dnswire.Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDNSViewDecode measures the zero-allocation receive-side
// decoder against the same wire bytes BenchmarkDNSPackUnpack round-trips.
func BenchmarkDNSViewDecode(b *testing.B) {
	q := dnswire.NewQuery(7, "r1.c0a80101.scan.dnsstudy.example.edu", dnswire.TypeA, dnswire.ClassIN)
	resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
	resp.AddAnswer(q.Questions[0].Name, dnswire.ClassIN, 300, dnswire.A{Addr: lfsr.U32ToAddr(0x01020304)})
	wire, err := resp.PackBytes()
	if err != nil {
		b.Fatal(err)
	}
	v := dnswire.GetView()
	defer dnswire.PutView(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Reset(wire); err != nil {
			b.Fatal(err)
		}
		if !v.QR() || !v.HasAnswerA() {
			b.Fatal("decode lost the answer")
		}
	}
}

// BenchmarkLFSRPermutation measures the target generator.
func BenchmarkLFSRPermutation(b *testing.B) {
	bl := lfsr.DefaultReserved()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := lfsr.NewTargetGenerator(20, uint32(i+1), bl)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, ok := g.NextU32(); !ok {
				break
			}
			n++
		}
		b.SetBytes(int64(n))
	}
}

// BenchmarkFeatureDistance measures the seven-feature page distance.
func BenchmarkFeatureDistance(b *testing.B) {
	w := wildnet.MustNewWorld(wildnet.DefaultConfig(16))
	srv := websim.New(w, wildnet.At(50))
	r1, _ := srv.HTTP(w.RoleAddr(wildnet.RoleParking, 1), "ghoogle.com", false)
	r2, _ := srv.HTTP(w.RoleAddr(wildnet.RoleSearchPage, 1), "ghoogle.com", false)
	f1, f2 := htmlx.Extract(r1.Body), htmlx.Extract(r2.Body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := cluster.FeatureDistance(f1, f2); d <= 0 {
			b.Fatal("degenerate distance")
		}
	}
}

// BenchmarkAgglomerate measures hierarchical clustering at the
// representative counts the pipeline feeds it. The sizes double so the
// scaling curve is visible: the nearest-neighbor-chain implementation
// should show ~4x per doubling (quadratic), where the old closest-pair
// scan showed ~6-8x (cubic) at these n.
func BenchmarkAgglomerate(b *testing.B) {
	dist := func(i, j int) float64 {
		if i%7 == j%7 {
			return 0.05
		}
		return 0.8
	}
	for _, n := range []int{200, 400, 800} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := cluster.Agglomerate(n, dist, 0.4)
				if r.Num != 7 {
					b.Fatalf("clusters = %d", r.Num)
				}
			}
			b.SetBytes(int64(n))
		})
	}
}

// BenchmarkHTMLExtract measures feature extraction.
func BenchmarkHTMLExtract(b *testing.B) {
	w := wildnet.MustNewWorld(wildnet.DefaultConfig(16))
	srv := websim.New(w, wildnet.At(50))
	legit, _ := w.LegitAddrs("chase.com", "US")
	r, _ := srv.HTTP(legit[0], "chase.com", false)
	b.SetBytes(int64(len(r.Body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := htmlx.Extract(r.Body); len(f.TagSeq) == 0 {
			b.Fatal("no tags")
		}
	}
}

// BenchmarkRenderReports measures the table renderers (sanity: rendering
// must be negligible next to measurement).
func BenchmarkRenderReports(b *testing.B) {
	s := benchStudy(b, 16)
	survey, _ := run(b, s, func(p *core.Plan) *core.Out[*fingerprint.ChaosSurvey] { return p.Chaos(46) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := analysis.RenderTable3(survey, 10); len(out) == 0 {
			b.Fatal("empty render")
		}
	}
}
