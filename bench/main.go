// Command bench is the repository's one benchmark: six named workloads,
// end-to-end metrics measured where a user stands, and a per-layer table
// that reconciles to them. See README.md in this directory.
//
// Usage (from the repository root):
//
//	go run -C bench goingwild/bench                          # all six workloads, results to bench/out/results.json
//	go run -C bench goingwild/bench -workload serve-hit      # one workload, in this process
//	go run -C bench goingwild/bench -trace 1                 # also run the traced pass of every workload
//	go run -C bench goingwild/bench -runs 10 -out A.json     # ten seeds per workload
//	go run -C bench goingwild/bench -compare A.json B.json   # exit 1 when B is worse than A
//
// Naming exactly one workload (and -runs 1) runs it in this process and
// prints one JSON object as the last line of standard output; every
// other form runs each workload in a fresh child process of that kind.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"
)

// defaultSeed is core.DefaultConfig's world seed.
const defaultSeed = 0x60176A11D

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the JSON object a single-workload run prints last.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is the "info" line a single-workload run prints before its
// result: what the suite records besides the metrics.
type runInfo struct {
	InputDigest string   `json:"input_digest"`
	Samples     int      `json:"samples"`
	BuildS      float64  `json:"bench.build_s"`
	Problems    []string `json:"problems,omitempty"`
	Notes       []string `json:"notes,omitempty"`
	// Measured holds the end-to-end metrics as the clocks read them.
	Measured map[string]float64 `json:"measured,omitempty"`
}

const infoPrefix = "info "

func main() {
	var (
		workload = flag.String("workload", "", "comma-separated workloads to run (default: all six)")
		seed     = flag.Uint64("seed", defaultSeed, "world seed and load-generator seed; the only source of variation")
		seconds  = flag.Float64("seconds", 10, "length of each timed window")
		trace    = flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics and a span file, never the end-to-end numbers")
		runs     = flag.Int("runs", 1, "runs per workload, each with the next seed")
		out      = flag.String("out", "", "results file (default bench/out/results.json when more than one run is made)")
		compare  = flag.Bool("compare", false, "compare two results files given as arguments; exit 1 if the second is worse")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes exactly two results files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds > 0, -runs >= 1 and -trace 0 or 1"))
	}
	names := workloadNames()
	if *workload != "" {
		names = strings.Split(*workload, ",")
		for _, n := range names {
			if !knownWorkload(n) {
				fatal(fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(workloadNames(), ", ")))
			}
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	window := time.Duration(*seconds * float64(time.Second))

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if len(names) == 1 && *runs == 1 {
		if err := runSingle(ctx, root, names[0], *seed, window, *trace == 1); err != nil {
			fatal(err)
		}
		return
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", "out", "results.json")
	}
	if err := runSuite(ctx, names, *seed, *seconds, *trace == 1, *runs, *out); err != nil {
		fatal(err)
	}
}

// runSingle runs one workload in this process and prints its metrics by
// name with unit, then the info line, then the result object.
func runSingle(ctx context.Context, root, name string, seed uint64, window time.Duration, traced bool) error {
	bins, buildTime, err := buildBinaries(root)
	if err != nil {
		return err
	}
	rc := runConfig{Seed: seed, Window: window, Size: fullSize, Bins: bins}
	var (
		r      *result
		values map[string]float64
		specs  = endToEnd
	)
	if traced {
		specs = perLayer
		tr := newTracer()
		if r, values, err = runTraced(ctx, name, rc, tr); err != nil {
			return err
		}
		dir := filepath.Join(root, "bench", "out")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := tr.writeFile(filepath.Join(dir, "trace-"+name+".json")); err != nil {
			return err
		}
	} else {
		if r, err = runWorkload(ctx, name, rc); err != nil {
			return err
		}
		values = r.endToEndValues()
	}

	fmt.Printf("workload %s seed %d window %s trace %v\n", name, seed, window, traced)
	fmt.Printf("input_digest %s\n", r.InputDigest)
	fmt.Printf("ops_attempted %d ops_failed %d (%d timed operations, each one %s)\n", r.Attempted, r.Failed, len(r.OpMs), timedOp[name])
	fmt.Printf("bench.build_s %.3f s (informational, not part of setup_s)\n", buildTime.Seconds())
	o := runOutput{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("bench: metric %s was not measured", m.Name)
		}
		o.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-44s %16.6g %s\n", m.Name, v, m.Unit)
	}
	var measured map[string]float64
	if !traced {
		// What the clocks read, before the yardstick brought it to the
		// nominal machine speed.
		measured = r.measuredValues()
		wall, cpu := r.Yard.speed()
		fmt.Printf("machine speed over this run: wall %.3f, cpu %.3f of nominal (%d yardstick bursts)\n", wall, cpu, len(r.Yard.wall))
		for _, m := range specs {
			fmt.Printf("measured %-35s %16.6g %s\n", m.Name, measured[m.Name], m.Unit)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintln(os.Stderr, "bench: gate:", p)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(os.Stderr, "bench: note:", n)
	}
	info, err := json.Marshal(runInfo{InputDigest: r.InputDigest, Samples: len(r.OpMs), BuildS: buildTime.Seconds(), Problems: r.Problems, Notes: r.Notes, Measured: measured})
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", infoPrefix, info)
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !o.Correct {
		return fmt.Errorf("%s: correctness gate failed: %d of %d operations", name, r.Failed, r.Attempted)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
