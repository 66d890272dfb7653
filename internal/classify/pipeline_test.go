package classify

import (
	"context"
	"testing"
	"time"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/fetch"
	"goingwild/internal/htmlx"
	"goingwild/internal/prefilter"
	"goingwild/internal/scanner"
	"goingwild/internal/websim"
	"goingwild/internal/wildnet"
)

// pipelineRig assembles the full classification stack over a small world
// without going through the core orchestrator.
type pipelineRig struct {
	w      *wildnet.World
	tr     *wildnet.MemTransport
	sc     *scanner.Scanner
	client *fetch.Client
	res    []uint32
}

func newPipelineRig(t *testing.T, order uint) *pipelineRig {
	t.Helper()
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(order))
	if err != nil {
		t.Fatal(err)
	}
	tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	t.Cleanup(func() { tr.Close() })
	tr.SetTime(wildnet.At(50))
	sc := scanner.New(tr, scanner.Options{Workers: 4, SettleDelay: time.Millisecond})
	sweep, err := sc.SweepContext(context.Background(), order, 77, w.ScanBlacklist())
	if err != nil {
		t.Fatal(err)
	}
	web := websim.New(w, wildnet.At(50))
	rig := &pipelineRig{w: w, tr: tr, sc: sc, res: sweep.NOERROR()}
	rig.client = fetch.NewClient(web, nil)
	return rig
}

func (r *pipelineRig) env() prefilter.Env {
	return prefilter.Env{
		TrustedResolve: func(name string) ([]uint32, dnswire.RCode) {
			return r.w.LegitAddrs(name, "DE")
		},
		RDNS: func(ip uint32) (string, bool) {
			n := r.w.RDNS(ip)
			return n, n != ""
		},
		ASOf: r.w.ASNOf,
		CertProbe: func(ip uint32, serverName string, sni bool) (prefilter.Cert, bool) {
			c, ok := r.client.CertProbe(ip, serverName, sni)
			if !ok {
				return prefilter.Cert{}, false
			}
			return prefilter.Cert{Valid: c.Valid, SelfSigned: c.SelfSigned,
				CommonName: c.CommonName, DNSNames: c.DNSNames}, true
		},
		TrustedCDNNames: []string{"static.cdn-global.example"},
	}
}

func (r *pipelineRig) pipeline() *Pipeline {
	return &Pipeline{
		Client: r.client,
		ResolverCountry: func(ri int) string {
			return r.w.Geo().LookupU32(r.res[ri]).Country
		},
		ResolverAddr: func(ri int) uint32 { return r.res[ri] },
		NearResolver: func(ip uint32, ri int) bool {
			return ip>>8 == r.res[ri]>>8 || r.w.ASNOf(ip) == r.w.ASNOf(r.res[ri])
		},
	}
}

func TestPipelineDirectRun(t *testing.T) {
	rig := newPipelineRig(t, 17)
	var names []string
	for _, d := range domains.ByCategory(domains.Adult) {
		names = append(names, d.Name)
	}
	for _, d := range domains.ByCategory(domains.NX) {
		names = append(names, d.Name)
	}
	scan, err := rig.sc.ScanDomainsContext(context.Background(), rig.res, names)
	if err != nil {
		t.Fatal(err)
	}
	pre := prefilter.Run(scan, rig.env())
	if len(pre.Unexpected) == 0 {
		t.Fatal("no unexpected tuples")
	}
	gt := BuildGroundTruth(rig.client, rig.env().TrustedResolve, names)
	rep := rig.pipeline().Run(scan, pre, gt)

	if rep.PairCount == 0 || rep.Clusters == 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if rep.Dedup < 1 {
		t.Errorf("dedup factor = %f", rep.Dedup)
	}
	// Censorship dominates the Adult column even without the injection
	// prober (landing pages carry payload).
	if got := rep.Table5.Share(domains.Adult, LCensorship); got.Avg < 0.3 {
		t.Errorf("Adult censorship avg = %f", got.Avg)
	}
	// Tuple labels cover every unexpected tuple.
	labeled := 0
	for _, byRes := range rep.TupleLabels {
		labeled += len(byRes)
	}
	if labeled == 0 {
		t.Error("no tuple labels")
	}
	if rep.FetchedShare <= 0 || rep.FetchedShare > 1 {
		t.Errorf("fetched share = %f", rep.FetchedShare)
	}
}

func TestPipelineInjectionProberLabelsDarkTuples(t *testing.T) {
	rig := newPipelineRig(t, 18)
	scan, err := rig.sc.ScanDomainsContext(context.Background(), rig.res, []string{"facebook.com"})
	if err != nil {
		t.Fatal(err)
	}
	pre := prefilter.Run(scan, rig.env())
	gt := BuildGroundTruth(rig.client, rig.env().TrustedResolve, []string{"facebook.com"})

	// Without the prober: Chinese dark answers stay unlabeled payload.
	noProbe := rig.pipeline().Run(scan, pre, gt)
	// With a prober that confirms Chinese injection.
	p := rig.pipeline()
	p.ProbeCountryInjection = func(country, name string) bool {
		return country == "CN" && name == "facebook.com"
	}
	withProbe := p.Run(scan, pre, gt)

	censNo := noProbe.Table5.Share(domains.Alexa, LCensorship)
	censYes := withProbe.Table5.Share(domains.Alexa, LCensorship)
	if censYes.Avg <= censNo.Avg {
		t.Errorf("injection prober did not lift censorship share: %.3f → %.3f",
			censNo.Avg, censYes.Avg)
	}
}

func TestDedupeGroupsIdenticalStructures(t *testing.T) {
	rig := newPipelineRig(t, 16)
	// Fabricate pages: three structurally identical, one different.
	mk := func(body string, status int, ni int, ip uint32) *page {
		pg := &page{key: pageKey{ni, ip}, res: fetch.Result{OK: true, Status: status, Body: body}}
		pg.features = htmlx.Extract(body)
		return pg
	}
	_ = rig
	a := mk("<html><title>x</title><div><p>1</p></div></html>", 200, 0, 1)
	b := mk("<html><title>y</title><div><p>2</p></div></html>", 200, 0, 2)
	c := mk("<html><title>z</title><div><p>3</p></div></html>", 200, 1, 3)
	d := mk("<table><tr><td>different</td></tr></table>", 200, 1, 4)
	reps, repOf := dedupe([]*page{a, b, c, d})
	if len(reps) != 2 {
		t.Fatalf("reps = %d, want 2", len(reps))
	}
	if repOf[a] != repOf[b] || repOf[b] != repOf[c] {
		t.Error("identical structures not grouped")
	}
	if repOf[d] == repOf[a] {
		t.Error("different structure grouped")
	}
}
