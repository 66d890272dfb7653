// Command wildmerge recombines per-shard census artifacts — written by
// `wildreport -shard i/M -shard-out f.json` running as M independent
// processes — into the single-scan census report. The one-shard artifact
// `wildreport -export DIR` writes as DIR/sweep.json reads the same way.
// The merged report is
// byte-identical to what one unsharded process prints for the same
// (order, seed, week), which is the whole point: sharding an
// Internet-wide scan across machines must not change its result.
//
// Usage:
//
//	wildreport -order 16 -shard 0/4 -shard-out s0.json
//	wildreport -order 16 -shard 1/4 -shard-out s1.json
//	...
//	wildmerge s0.json s1.json s2.json s3.json
//	wildmerge -out merged.json s*.json     # also write the merged artifact
//	wildmerge DIR/sweep.json               # the census of a -export run
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"goingwild/internal/shardio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, merges the
// named artifacts, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wildmerge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "also write the merged census as a 1/1 artifact to this file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: wildmerge [-out merged.json] shard0.json shard1.json ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		// An empty shard list is a broken invocation (typically a glob
		// that matched nothing), never a valid scan of zero shards: say
		// so explicitly rather than printing only the usage text, and
		// exit non-zero so driving scripts fail loudly.
		fmt.Fprintln(stderr, "wildmerge: no shard artifact files given (did your glob match anything?)")
		fs.Usage()
		return 2
	}
	arts := make([]shardio.Artifact, 0, fs.NArg())
	for _, path := range fs.Args() {
		a, err := shardio.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "wildmerge:", err)
			if errors.Is(err, shardio.ErrCorrupt) {
				// A truncated or garbled artifact is a transfer problem,
				// not a scan problem: exit 2 so driving scripts can
				// re-fetch the file instead of re-running the shard.
				return 2
			}
			return 1
		}
		arts = append(arts, a)
	}
	res, prov, err := shardio.Merge(arts)
	if err != nil {
		fmt.Fprintln(stderr, "wildmerge:", err)
		return 1
	}
	if *out != "" {
		if err := shardio.WriteFile(*out, shardio.FromSweep(prov, 0, 1, res)); err != nil {
			fmt.Fprintln(stderr, "wildmerge:", err)
			return 1
		}
	}
	fmt.Fprint(stdout, shardio.RenderCensus(res))
	return 0
}
