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
	"sync"
	"time"

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
		epochs      = flag.Int("epochs", 55, "weekly re-scan epochs the producer runs")
		addr        = flag.String("addr", "", "HTTP listen address for the query API (default 127.0.0.1:0)")
		queueDepth  = flag.Int("queue-depth", 2, "bounded epoch queue between producer and store")
		ttlBase     = flag.Int("ttl-base", resolvesvc.DefaultTTLBase, "refresh TTL in epochs for once-flapped records (halves per flap)")
		batchWindow = flag.Duration("batch-window", 2*time.Millisecond, "how long the coalescer gathers concurrent misses into one probe batch")
		workers     = flag.Int("workers", 8, "scanner sender goroutines")
		smoke       = flag.Bool("smoke", false, "run the self-contained HTTP smoke test and exit")
	)
	f.Parse()
	ctx, _, release := f.Context(context.Background(), "")
	defer release()

	reg := f.Registry(true)
	cfg := f.StudyConfig()
	cfg.Weeks = *epochs
	cfg.Workers = *workers
	if *smoke {
		// The smoke run is small and fast: a few epochs, a generous
		// batch window so the concurrent-miss burst provably coalesces.
		cfg.Weeks = 3
		*epochs = 3
		*batchWindow = 100 * time.Millisecond
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
		Order:       f.Order,
		ScanSeed:    cfg.ScanSeed,
		Epochs:      *epochs,
		QueueDepth:  *queueDepth,
		TTLBase:     *ttlBase,
		BatchWindow: *batchWindow,
		Blacklist:   study.World.ScanBlacklist(),
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
		if err := runSmoke(ctx, baseURL, svc, reg, *epochs); err != nil {
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
// path, a concurrent burst must coalesce, and the counters must agree.
func runSmoke(ctx context.Context, baseURL string, svc *resolvesvc.Service, reg *metrics.Registry, epochs int) error {
	store := svc.Store()
	open := store.List(true, 1)
	if len(open) == 0 {
		return errors.New("smoke: no open resolvers in the store")
	}
	knownIP := lfsr.U32ToAddr(open[0].Addr).String()

	// A known responder: served from the store, correctly shaped.
	var lr resolvesvc.LookupResponse
	if err := getJSON(ctx, baseURL+"/resolver?ip="+knownIP, &lr); err != nil {
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
	missAddr, ok := findMiss(store)
	if !ok {
		return errors.New("smoke: no miss address available")
	}
	missIP := lfsr.U32ToAddr(missAddr).String()
	if err := getJSON(ctx, baseURL+"/resolver?ip="+missIP, &lr); err != nil {
		return err
	}
	if lr.Source != "probe" || lr.FirstSeenEpoch != resolvesvc.NeverSeen {
		return fmt.Errorf("smoke: known miss %s answered %+v", missIP, lr)
	}
	if n := reg.Snapshot().Counter("svc.lookup.miss"); n == 0 {
		return errors.New("smoke: miss lookup did not count as a miss")
	}

	// A concurrent burst on a second cold address coalesces onto one
	// probe (the service's batch window holds the probe long enough for
	// every request of the burst to arrive).
	burstAddr, ok := findMiss(store)
	if !ok {
		return errors.New("smoke: no burst address available")
	}
	burstIP := lfsr.U32ToAddr(burstAddr).String()
	const fanout = 4
	errs := make([]error, fanout)
	var wg sync.WaitGroup
	for i := 0; i < fanout; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var r resolvesvc.LookupResponse
			errs[i] = getJSON(ctx, baseURL+"/resolver?ip="+burstIP, &r)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if n := reg.Snapshot().Counter("svc.lookup.coalesced"); n == 0 {
		return errors.New("smoke: concurrent burst did not coalesce")
	}

	// Status agrees with the store.
	var st resolvesvc.StatusResponse
	if err := getJSON(ctx, baseURL+"/svc/status", &st); err != nil {
		return err
	}
	if st.Epoch != epochs-1 || st.Records != store.Records() {
		return fmt.Errorf("smoke: status %+v disagrees with store (epoch %d, records %d)", st, epochs-1, store.Records())
	}
	snap := reg.Snapshot()
	fmt.Printf("wildsvc smoke: epoch=%d records=%d open=%d hit=%d miss=%d coalesced=%d probes=%d\n",
		st.Epoch, st.Records, st.Open,
		snap.Counter("svc.lookup.hit"), snap.Counter("svc.lookup.miss"),
		snap.Counter("svc.lookup.coalesced"), snap.Counter("svc.probe.done"))
	return nil
}

// findMiss returns an in-space (order-16 smoke world) address the store
// has no record of.
func findMiss(store *resolvesvc.Store) (uint32, bool) {
	space := uint32(1) << 16
	for a := uint32(1); a < space; a++ {
		if _, ok := store.Get(a); !ok {
			return a, true
		}
	}
	return 0, false
}

// getJSON fetches url and decodes the JSON body into out.
func getJSON(ctx context.Context, url string, out any) error {
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
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, out)
}
