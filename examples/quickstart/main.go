// Quickstart: build a small virtual Internet, enumerate its open DNS
// resolvers, run the Figure-3 classification chain over two domain
// categories, and print what the resolvers are doing to the answers.
package main

import (
	"context"
	"fmt"
	"log"

	"goingwild"

	"goingwild/internal/analysis"
	"goingwild/internal/domains"
)

func main() {
	// Order 16 is a 65,536-address world: a laptop-friendly miniature
	// of the paper's 2^32 scan space.
	study, err := goingwild.NewStudy(goingwild.DefaultConfig(16))
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()
	ctx := context.Background()

	// Step 1 is the Internet-wide scan; steps 2–6 (domain scan,
	// prefilter, acquisition, clustering, labeling for the Banking and NX
	// categories) follow it on the same plan and target its resolvers.
	p := study.NewPlan()
	census := p.Census(50)
	out := p.DomainStudy(50, []goingwild.Category{domains.Banking, domains.NX})
	if err := p.Run(ctx); err != nil {
		log.Fatal(err)
	}
	sweep, res := census.Sweep, out.V
	fmt.Printf("week-50 scan: %d responding DNS servers (≈%.1fM at paper scale)\n",
		sweep.Total(), float64(sweep.Total())*study.World.ScaleFactor()/1e6)
	fmt.Println("\nProcessing chain:")
	for _, st := range res.StageTrace {
		fmt.Printf("  %-26s %d\n", st.Stage, st.Count)
	}
	fmt.Println()
	fmt.Println(analysis.RenderTable5(res.Report.Table5,
		[]goingwild.Category{domains.Banking, domains.NX}))
}
