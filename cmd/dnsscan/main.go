// Command dnsscan is the standalone scanning tool: Internet-wide sweeps,
// CHAOS fingerprinting, and domain-set scans over the virtual Internet —
// either through the in-memory transport or over real UDP sockets via the
// loopback gateway (-udp), which exercises the kernel network stack.
//
// Usage:
//
//	dnsscan -order 16 -mode sweep
//	dnsscan -order 16 -mode chaos -udp
//	dnsscan -order 16 -mode domains -category Banking
//
// Every run ends on a "traffic:" line — probes sent, responses received
// and the send rate over the run — summed from the metrics registry's
// *.sent and *.recv counters, the sums -progress prints while it runs.
//
// A bad -mode, -category, -week or -rate is a usage error (exit 2) before
// anything is scanned. SIGINT cancels the scan; a killed scan is
// run again.
package main

import (
	"context"
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"

	"goingwild/internal/cli"
	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/fingerprint"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

func main() {
	f := cli.Register("dnsscan", 16)
	f.RegisterRun()
	flag.Lookup("progress").Usage = "print a periodic progress line to stderr"
	var (
		scanSeed = flag.Uint("scanseed", 0x5EED, "LFSR seed for the target permutation")
		week     = flag.Int("week", 0, "study week")
		mode     = flag.String("mode", "sweep", strings.Join(modes, " | "))
		category = flag.String("category", "Banking", "domain category for -mode domains")
		useUDP   = flag.Bool("udp", false, "drive the scan over real UDP sockets (loopback gateway)")
		rate     = flag.Int("rate", 0, "probe rate limit in packets/s (0 = unlimited)")
	)
	f.Parse()
	var names []string // the -category names and the ground truth, for -mode domains
	switch {
	case !slices.Contains(modes, *mode):
		f.Usage(fmt.Errorf("unknown -mode %q; valid modes: %s", *mode, strings.Join(modes, ", ")))
	case *week < 0:
		f.Usage(fmt.Errorf("-week %d: must be at least 0", *week))
	case *rate < 0:
		f.Usage(fmt.Errorf("-rate %d: must be at least 0", *rate))
	case *mode == "domains":
		for _, d := range domains.ByCategory(domains.Category(*category)) {
			names = append(names, d.Name)
		}
		if len(names) == 0 {
			f.Usage(fmt.Errorf("unknown -category %q; valid categories: %s", *category, categoryList()))
		}
		names = append(names, domains.GroundTruth)
	}
	ctx, release := f.Context(context.Background())
	defer release()

	// Always on: the exit traffic line reads the registry's counters.
	reg := f.Registry(true)
	// The -chaos profile's faults, with the retry rounds a report runs
	// over them.
	study := f.StudyConfig()
	wcfg := wildnet.DefaultConfig(f.Order)
	wcfg.Seed = f.Seed
	wcfg.Metrics = reg
	wcfg.Faults = study.Faults
	world, err := wildnet.NewWorld(wcfg)
	if err != nil {
		f.Fatal(err)
	}

	var tr scanner.Transport
	settle := scanner.NoSettle
	if *useUDP {
		gw, err := wildnet.StartGateway(ctx, world, wildnet.VantagePrimary)
		if err != nil {
			f.Fatal(err)
		}
		defer gw.Close()
		gw.SetTime(wildnet.At(*week))
		udp, err := wildnet.DialGateway(gw.Addr())
		if err != nil {
			f.Fatal(err)
		}
		tr = udp
		settle = 200 * time.Millisecond
		if *rate == 0 {
			// Loopback sockets drop bursts beyond the buffer; pace
			// real-UDP scans by default.
			*rate = 30000
		}
		fmt.Printf("scanning over UDP via gateway %s\n", gw.Addr())
	} else {
		mem := wildnet.NewMemTransport(world, wildnet.VantagePrimary)
		mem.SetTime(wildnet.At(*week))
		tr = mem
	}
	defer tr.Close()

	sc := scanner.New(tr, scanner.Options{
		Workers: 8, SettleDelay: settle, RatePPS: *rate,
		SweepRetries: study.SweepRetries, Metrics: reg,
	})
	defer f.Observe()()
	start := time.Now()
	// The exit line sums the same *.sent / *.recv counters -progress prints.
	defer func() {
		snap := reg.Snapshot()
		sent, _ := snap.Traffic()
		fmt.Printf("traffic: %s rate=%.0f pps\n", snap.TrafficLine(), float64(sent)/time.Since(start).Seconds())
	}()
	sweep, err := sc.SweepContext(ctx, f.Order, uint32(*scanSeed), world.ScanBlacklist())
	if err != nil {
		f.Fatal(err)
	}
	elapsed := time.Since(start)
	pps := float64(sweep.Probed) / elapsed.Seconds()
	fmt.Printf("sweep: %d targets in %v (%.0f probes/s), %d responders\n",
		sweep.Probed, elapsed.Round(time.Millisecond), pps, sweep.Total())
	for _, rc := range []dnswire.RCode{dnswire.RCodeNoError, dnswire.RCodeRefused, dnswire.RCodeServFail} {
		fmt.Printf("  %-9s %d\n", rc, sweep.ByRCode[rc])
	}
	fmt.Printf("  mis-sourced responses: %d\n", sweep.MisSourcedCount())

	switch *mode {
	case "sweep":
	case "chaos":
		resolvers := sweep.NOERROR()
		res, err := sc.ScanChaosContext(ctx, resolvers)
		if err != nil {
			f.Fatal(err)
		}
		survey := fingerprint.SurveyChaos(res)
		fmt.Printf("chaos: %d/%d responded; versioned %.1f%%\n",
			survey.Responded, len(resolvers), 100*survey.VersionedShare())
	case "domains":
		resolvers := sweep.NOERROR()
		res, err := sc.ScanDomainsContext(ctx, resolvers, names)
		if err != nil {
			f.Fatal(err)
		}
		for ni, name := range res.Names {
			answered, withAddrs := 0, 0
			for ri := range resolvers {
				a := &res.Answers[ni][ri]
				if a.Answered() {
					answered++
				}
				if len(a.Addrs) > 0 {
					withAddrs++
				}
			}
			fmt.Printf("  %-38s answered %5d  with-addresses %5d\n", name, answered, withAddrs)
		}
	}
}

// modes are the values -mode accepts.
var modes = []string{"sweep", "chaos", "domains"}

// categoryList names the values -category accepts.
func categoryList() string {
	names := make([]string, len(domains.AllCategories))
	for i, c := range domains.AllCategories {
		names[i] = string(c)
	}
	return strings.Join(names, ", ")
}
