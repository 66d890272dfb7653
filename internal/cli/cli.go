// Package cli is the one place the command-line surface wildreport,
// dnsscan and wildsvc share is declared: the flags all of them
// take, and the run scaffolding behind those flags — interrupt handling,
// metrics registry, debug endpoint, progress output, exit-time snapshot,
// report sections. A binary's main keeps only its own flags and its own
// work. A run is short enough to repeat, so nothing here saves progress:
// an interrupted run is run again.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"goingwild/internal/core"
	"goingwild/internal/debughttp"
	"goingwild/internal/metrics"
	"goingwild/internal/pipeline"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// Flags holds one binary's shared flags, valid after Parse. A binary whose
// wording of a flag differs sets flag.Lookup(name).Usage after registering.
type Flags struct {
	prog string
	reg  *metrics.Registry

	Order    uint
	Seed     uint64
	Progress bool
	Metrics  string
	// The run flags; see RegisterRun.
	Chaos     string
	DebugAddr string
}

// Register declares the flags all three binaries take, on the process
// command line: -order (default order), -seed, -progress and -metrics.
// prog names the binary in everything the package prints.
func Register(prog string, order uint) *Flags {
	f := &Flags{prog: prog}
	flag.UintVar(&f.Order, "order", order, "address-space width in bits")
	flag.Uint64Var(&f.Seed, "seed", 0x60176A11D, "world seed")
	flag.BoolVar(&f.Progress, "progress", false, "print per-stage pipeline events to stderr")
	flag.StringVar(&f.Metrics, "metrics", "", "write a JSON metrics snapshot to this file at exit")
	return f
}

// RegisterRun adds the flags of a binary that runs a study or scan to
// completion: -chaos and -debug-addr. The daemon serves its own endpoint
// and goes without.
func (f *Flags) RegisterRun() {
	flag.StringVar(&f.Chaos, "chaos", "", "fault-injection profile (clean, lossy, hostile, flaky); empty injects nothing")
	flag.StringVar(&f.DebugAddr, "debug-addr", "", "serve expvar/pprof/metrics over HTTP on this address (e.g. localhost:6060)")
}

// Parse parses the command line and checks the shared flags before any
// work starts: -order must be a width a world can be built at, and
// -chaos must name a profile.
func (f *Flags) Parse() {
	flag.Parse()
	if err := wildnet.CheckOrder(f.Order); err != nil {
		f.Usage(fmt.Errorf("-order: %w", err))
	}
	if f.Chaos != "" {
		if _, err := wildnet.ChaosProfile(f.Chaos); err != nil {
			f.Usage(err)
		}
	}
}

// Usage reports a bad command line and exits 2, as the flag package does.
func (f *Flags) Usage(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", f.prog, err)
	os.Exit(2)
}

// Fatal reports a failure on stderr and exits 1.
func (f *Flags) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", f.prog, err)
	os.Exit(1)
}

// Context derives the run's context from root: SIGINT cancels it, and
// every stage boundary and send batch honors that. release undoes the
// signal handling.
func (f *Flags) Context(root context.Context) (ctx context.Context, release func()) {
	return signal.NotifyContext(root, os.Interrupt)
}

// Registry returns the run's metrics registry, created when -metrics or
// -debug-addr asks for one or the binary always wants one (force); nil
// leaves instrumentation off. Metrics are a pure side channel: stdout is
// byte-identical with and without a registry attached.
func (f *Flags) Registry(force bool) *metrics.Registry {
	if f.reg == nil && (force || f.Metrics != "" || f.DebugAddr != "") {
		f.reg = metrics.New()
	}
	return f.reg
}

// StudyConfig is the study the shared flags describe: -order, the -chaos
// profile's faults with the retry tuning that rides over them, -seed, and
// the registry.
func (f *Flags) StudyConfig() core.Config {
	cfg := core.DefaultConfig(f.Order)
	if f.Chaos != "" {
		var err error
		if cfg, err = core.ChaosProfileConfig(f.Order, f.Chaos); err != nil {
			f.Fatal(err)
		}
	}
	cfg.Seed = f.Seed
	cfg.Metrics = f.Registry(false)
	return cfg
}

// Observe starts the side channels the flags ask for — the -debug-addr
// endpoint and, under -progress with a registry live, the periodic
// one-line traffic summary — and returns the exit hook that stops them
// and writes the -metrics snapshot. All of it goes to stderr or off
// process, so stdout stays byte-identical.
func (f *Flags) Observe() (stop func()) {
	stopDebug := func() error { return nil }
	if f.DebugAddr != "" {
		addr, stop, err := debughttp.Serve(f.DebugAddr, f.reg)
		if err != nil {
			f.Fatal(err)
		}
		stopDebug = stop
		fmt.Fprintf(os.Stderr, "%s: debug endpoint on http://%s\n", f.prog, addr)
	}
	stopProgress := func() {}
	if f.Progress && f.reg != nil {
		stopProgress = metrics.StartProgress(os.Stderr, scanner.SystemClock, 2*time.Second, f.reg)
	}
	return func() {
		stopProgress()
		f.WriteMetrics()
		if err := stopDebug(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: debug endpoint: %v\n", f.prog, err)
		}
	}
}

// WriteMetrics writes the registry's final snapshot to the -metrics file,
// if one was asked for.
func (f *Flags) WriteMetrics() {
	if f.Metrics == "" {
		return
	}
	if err := writeSnapshot(f.Metrics, f.reg); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.prog, err)
	}
}

func writeSnapshot(path string, reg *metrics.Registry) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Snapshot().WriteJSON(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// StageProgress returns the -progress stage observer, one stderr line per
// pipeline stage edge; nil without -progress.
func (f *Flags) StageProgress() pipeline.Observer {
	if !f.Progress {
		return nil
	}
	return func(ev pipeline.StageEvent) {
		switch ev.Kind {
		case pipeline.StageStart:
			fmt.Fprintf(os.Stderr, "%s: stage %-16s start\n", f.prog, ev.Stage)
		case pipeline.StageDone:
			fmt.Fprintf(os.Stderr, "%s: stage %-16s done  (%s)", f.prog, ev.Stage, ev.Elapsed)
			for _, c := range ev.Counts {
				fmt.Fprintf(os.Stderr, "  %s=%d", c.Name, c.Value)
			}
			fmt.Fprintln(os.Stderr)
		case pipeline.StageFailed:
			fmt.Fprintf(os.Stderr, "%s: stage %-16s failed: %v\n", f.prog, ev.Stage, ev.Err)
		case pipeline.StageSkipped:
			fmt.Fprintf(os.Stderr, "%s: stage %-16s skipped\n", f.prog, ev.Stage)
		}
	}
}
