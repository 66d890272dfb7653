// Command wildsvc is the long-running resolver-intelligence daemon: it
// continuously re-scans the simulated Internet in weekly epochs and
// serves an HTTP/JSON query API over the live result store — "is this
// IP an open resolver? what rcode, country, RIR? first/last seen?" —
// with coalesced on-demand probes for anything the store cannot vouch
// for.
//
// Usage:
//
//	wildsvc -order 16 -epochs 55 -addr localhost:8053
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
	"errors"
	"flag"
	"fmt"
	"os"

	"goingwild/internal/cli"
	"goingwild/internal/core"
	"goingwild/internal/debughttp"
	"goingwild/internal/geodb"
	"goingwild/internal/resolvesvc"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

func main() {
	f := cli.Register("wildsvc", 16)
	flag.Lookup("progress").Usage = "print one line per committed epoch to stderr"
	var (
		epochs = flag.Int("epochs", 55, "weekly re-scan epochs the producer runs")
		addr   = flag.String("addr", "", "HTTP listen address for the query API (default 127.0.0.1:0)")
	)
	f.Parse()
	ctx, release := f.Context(context.Background())
	defer release()

	reg := f.Registry(true)
	cfg := f.StudyConfig()
	cfg.Weeks = *epochs
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
	boundAddr, stopDebug, err := debughttp.Serve(*addr, reg, svc.APIRoutes()...)
	if err != nil {
		f.Fatal(err)
	}
	defer func() {
		if err := stopDebug(); err != nil {
			fmt.Fprintln(os.Stderr, "wildsvc: http endpoint:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "wildsvc: query API on http://%s\n", boundAddr)

	// The epoch loop: the producer keeps re-sweeping the space and Run
	// returns once every epoch has been committed to the store. The
	// coalescer keeps answering demand probes until ctx is cancelled.
	runErr := make(chan error, 1)
	go func() { runErr <- svc.Run(ctx) }()

	// After the final epoch the service keeps serving the committed
	// store (and demand probes) until interrupted.
	if err := <-runErr; err != nil && !errors.Is(err, context.Canceled) {
		f.Fatal(err)
	}
	if ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "wildsvc: all %d epochs committed; serving until interrupt\n", *epochs)
		<-ctx.Done()
	}
	fmt.Fprintln(os.Stderr, "wildsvc: shutting down")
}
