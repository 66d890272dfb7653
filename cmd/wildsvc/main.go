// Command wildsvc is the long-running resolver-intelligence daemon: it
// continuously re-scans the simulated Internet in weekly epochs and
// serves an HTTP/JSON query API over the live result store — "is this
// IP an open resolver? what rcode, country, RIR? first/last seen?" —
// with coalesced on-demand probes for anything the store cannot vouch
// for.
//
// Usage:
//
//	wildsvc -order 16 -epochs 55 -addr localhost:8053   # daemon
//	wildsvc -order 16 -smoke                            # self-contained smoke test
//
// At most two swept epochs wait between the sweeper and the store — a
// constant, not a flag: the world's block-table cache is sized for the
// lead it gives the sweeper.
//
// What a client on a socket gets out of it is measured by the repository
// benchmark: go run -C bench goingwild/bench -workload serve-hit.
//
// The API rides the debug endpoint's mux: /resolver?ip=A.B.C.D,
// /resolvers?limit=N&open=1, /svc/status, plus the usual /metrics,
// /metrics.json, /debug/vars, /debug/pprof.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"

	"goingwild/internal/cli"
	"goingwild/internal/core"
	"goingwild/internal/debughttp"
	"goingwild/internal/geodb"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/resolvesvc"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

func main() {
	f := cli.Register("wildsvc", 16)
	flag.Lookup("progress").Usage = "print one line per committed epoch to stderr"
	var (
		epochs  = flag.Int("epochs", 55, "weekly re-scan epochs the producer runs")
		addr    = flag.String("addr", "", "HTTP listen address for the query API (default 127.0.0.1:0)")
		ttlBase = flag.Int("ttl-base", resolvesvc.DefaultTTLBase, "refresh TTL in epochs for once-flapped records (halves per flap)")
		workers = flag.Int("workers", 8, "scanner sender goroutines")
		smoke   = flag.Bool("smoke", false, "run the self-contained HTTP smoke test and exit")
	)
	f.Parse()
	ctx, release := f.Context(context.Background())
	defer release()

	reg := f.Registry(true)
	cfg := f.StudyConfig()
	cfg.Weeks = *epochs
	cfg.Workers = *workers
	if *smoke {
		// The smoke run is small and fast: a few epochs.
		cfg.Weeks = 3
		*epochs = 3
	}
	study, err := core.NewStudy(cfg)
	if err != nil {
		f.Fatal(err)
	}
	defer study.Close()

	// The demand prober rides its own transport: scanner.ProbeContext
	// installs a receiver, and sharing the sweep transport would steal
	// the epoch sweep's receiver mid-scan. The world is immutable after
	// construction, so a second transport observes identical behavior.
	proberTr := wildnet.NewMemTransport(study.World, wildnet.VantagePrimary)
	defer proberTr.Close()
	prober := scanner.New(proberTr, scanner.Options{
		Workers:     2,
		SettleDelay: scanner.NoSettle,
		Metrics:     reg,
	})

	locator := func(u uint32) (string, geodb.RIR) {
		loc := study.World.Geo().LookupU32(u)
		return loc.Country, loc.RIR
	}
	svcCfg := resolvesvc.Config{
		Order:     f.Order,
		ScanSeed:  cfg.ScanSeed,
		Epochs:    *epochs,
		TTLBase:   *ttlBase,
		Blacklist: study.World.ScanBlacklist(),
	}
	if f.Progress {
		svcCfg.OnEpoch = func(st resolvesvc.EpochStatus) {
			fmt.Fprintf(os.Stderr, "wildsvc: epoch %d committed  probed=%d deltas=%d records=%d open=%d lag=%d\n",
				st.Epoch, st.Probed, st.Deltas, st.Records, st.Open, st.Lag)
		}
	}
	svc := resolvesvc.New(svcCfg, resolvesvc.Deps{
		Scanner:    study.Scanner,
		SweepClock: study.Transport,
		Prober:     prober,
		ProbeClock: proberTr,
		Locator:    locator,
		Metrics:    reg,
		WallClock:  scanner.SystemClock,
	})

	defer f.WriteMetrics()

	// Mount the query API on the debug endpoint's mux.
	if *addr == "" {
		*addr = "127.0.0.1:0"
	}
	var routes []debughttp.Route
	for _, r := range svc.APIRoutes() {
		routes = append(routes, debughttp.Route{Pattern: r.Pattern, Handler: r.Handler})
	}
	boundAddr, stopDebug, err := debughttp.Serve(*addr, reg, routes...)
	if err != nil {
		f.Fatal(err)
	}
	defer func() {
		if err := stopDebug(); err != nil {
			fmt.Fprintln(os.Stderr, "wildsvc: http endpoint:", err)
		}
	}()
	baseURL := "http://" + boundAddr
	fmt.Fprintf(os.Stderr, "wildsvc: query API on %s\n", baseURL)

	// The epoch loop: the producer keeps re-sweeping the space and Run
	// returns once every epoch has been committed to the store. The
	// coalescer keeps answering demand probes until ctx is cancelled.
	runErr := make(chan error, 1)
	go func() { runErr <- svc.Run(ctx) }()

	if *smoke {
		// Wait for the epochs, then drive the API over real HTTP.
		if err := <-runErr; err != nil {
			f.Fatal(err)
		}
		if err := runSmoke(ctx, baseURL, svc, reg, f.Order, *epochs); err != nil {
			f.Fatal(err)
		}
		fmt.Println("wildsvc smoke: PASS")
		return
	}
	// Daemon: after the final epoch the service keeps serving the
	// committed store (and demand probes) until interrupted.
	if err := <-runErr; err != nil && !errors.Is(err, context.Canceled) {
		f.Fatal(err)
	}
	if ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "wildsvc: all %d epochs committed; serving until interrupt\n", *epochs)
		<-ctx.Done()
	}
	fmt.Fprintln(os.Stderr, "wildsvc: shutting down")
}

// runSmoke drives the query API end to end over real HTTP: a known
// responder must hit the store, a known-miss IP must take the probe
// path, an address outside the scanned space must be refused without a
// trace, a concurrent burst on one cold address must cost one probe, and
// the counters must agree.
func runSmoke(ctx context.Context, baseURL string, svc *resolvesvc.Service, reg *metrics.Registry, order uint, epochs int) error {
	store := svc.Store()
	open := store.List(true, 1)
	if len(open) == 0 {
		return errors.New("smoke: no open resolvers in the store")
	}
	knownIP := lfsr.U32ToAddr(open[0].Addr).String()

	// A known responder: served from the store, correctly shaped.
	var lr resolvesvc.LookupResponse
	if err := getJSON(ctx, baseURL+"/resolver?ip="+knownIP, http.StatusOK, &lr); err != nil {
		return err
	}
	if !lr.Known || !lr.Open || lr.IP != knownIP {
		return fmt.Errorf("smoke: known responder %s answered %+v", knownIP, lr)
	}
	if lr.RCode == "" || lr.Epoch != epochs-1 {
		return fmt.Errorf("smoke: known responder %s shape off (rcode=%q epoch=%d want %d)", knownIP, lr.RCode, lr.Epoch, epochs-1)
	}
	hitsAfterKnown := reg.Snapshot().Counter("svc.lookup.hit")
	if hitsAfterKnown == 0 {
		return errors.New("smoke: known-responder lookup did not count as a hit")
	}

	// A known miss: an in-space address no sweep ever saw answers via
	// the demand-probe path.
	missAddr, ok := findMiss(store, order)
	if !ok {
		return errors.New("smoke: no miss address available")
	}
	missIP := lfsr.U32ToAddr(missAddr).String()
	if err := getJSON(ctx, baseURL+"/resolver?ip="+missIP, http.StatusOK, &lr); err != nil {
		return err
	}
	if lr.Source != "probe" || lr.FirstSeenEpoch != resolvesvc.NeverSeen {
		return fmt.Errorf("smoke: known miss %s answered %+v", missIP, lr)
	}
	if n := reg.Snapshot().Counter("svc.lookup.miss"); n == 0 {
		return errors.New("smoke: miss lookup did not count as a miss")
	}

	// Outside the scanned space — address zero and the first address past
	// 2^order−1 — is a client error: no probe, no record.
	recordsBefore, probesBefore := store.Records(), reg.Snapshot().Counter("svc.probe.done")
	for _, a := range []uint32{0, 1 << order} {
		outIP := lfsr.U32ToAddr(a).String()
		var e map[string]string
		if err := getJSON(ctx, baseURL+"/resolver?ip="+outIP, http.StatusBadRequest, &e); err != nil {
			return err
		}
		if e["error"] == "" {
			return fmt.Errorf("smoke: out-of-space %s refused without an error body", outIP)
		}
	}
	snap := reg.Snapshot()
	if store.Records() != recordsBefore || snap.Counter("svc.probe.done") != probesBefore || snap.Counter("svc.lookup.rejected") != 2 {
		return fmt.Errorf("smoke: out-of-space lookups left a trace (records %d→%d, probes %d→%d, rejected %d)",
			recordsBefore, store.Records(), probesBefore, snap.Counter("svc.probe.done"), snap.Counter("svc.lookup.rejected"))
	}

	// A concurrent burst on a second cold address costs exactly one probe:
	// each request either joins the probe in flight or, arriving after its
	// answer, is served the probe-born record — and all read the same.
	burstAddr, ok := findMiss(store, order)
	if !ok {
		return errors.New("smoke: no burst address available")
	}
	burstIP := lfsr.U32ToAddr(burstAddr).String()
	const fanout = 4
	answers := make([]resolvesvc.LookupResponse, fanout)
	errs := make([]error, fanout)
	var wg sync.WaitGroup
	for i := 0; i < fanout; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = getJSON(ctx, baseURL+"/resolver?ip="+burstIP, http.StatusOK, &answers[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return err
		}
		a, b := answers[i], answers[0]
		if a.Known != b.Known || a.Open != b.Open || a.FirstSeenEpoch != b.FirstSeenEpoch {
			return fmt.Errorf("smoke: burst on %s answered %+v and %+v", burstIP, b, a)
		}
	}
	if n := reg.Snapshot().Counter("svc.probe.done") - probesBefore; n != 1 {
		return fmt.Errorf("smoke: burst of %d on one cold address cost %d probes, want 1", fanout, n)
	}

	// Status agrees with the store.
	var st resolvesvc.StatusResponse
	if err := getJSON(ctx, baseURL+"/svc/status", http.StatusOK, &st); err != nil {
		return err
	}
	if st.Epoch != epochs-1 || st.Records != store.Records() {
		return fmt.Errorf("smoke: status %+v disagrees with store (epoch %d, records %d)", st, epochs-1, store.Records())
	}
	snap = reg.Snapshot()
	fmt.Printf("wildsvc smoke: epoch=%d records=%d open=%d hit=%d miss=%d coalesced=%d rejected=%d probes=%d\n",
		st.Epoch, st.Records, st.Open,
		snap.Counter("svc.lookup.hit"), snap.Counter("svc.lookup.miss"),
		snap.Counter("svc.lookup.coalesced"), snap.Counter("svc.lookup.rejected"), snap.Counter("svc.probe.done"))
	for _, h := range snap.Histograms {
		if h.Name == "svc.probe.wait_us" {
			fmt.Println("wildsvc smoke:", bucketLine(h))
		}
	}
	return nil
}

// bucketLine renders a histogram as one line, "name le10=3 … inf=0 count=5".
func bucketLine(h metrics.HistogramValue) string {
	var b strings.Builder
	b.WriteString(h.Name)
	for _, bk := range h.Buckets {
		if bk.Upper == nil {
			fmt.Fprintf(&b, " inf=%d", bk.Count)
		} else {
			fmt.Fprintf(&b, " le%d=%d", *bk.Upper, bk.Count)
		}
	}
	fmt.Fprintf(&b, " count=%d", h.Count)
	return b.String()
}

// findMiss returns an address inside the scanned space the store has no
// record of.
func findMiss(store *resolvesvc.Store, order uint) (uint32, bool) {
	for a := uint64(1); a < 1<<order; a++ {
		if _, ok := store.Get(uint32(a)); !ok {
			return uint32(a), true
		}
	}
	return 0, false
}

// getJSON fetches url, requires the given status, and decodes the JSON
// body into out.
func getJSON(ctx context.Context, url string, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("GET %s: status %d, want %d: %s", url, resp.StatusCode, want, body)
	}
	return json.Unmarshal(body, out)
}
