// Censorship study: scan the Alexa and Adult categories at every open
// resolver, isolate the unexpected answers, and reproduce the paper's
// Figure-4 geography — the Chinese injector dominating the blocked trio —
// plus the per-country compliance analysis of §4.2.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"goingwild"

	"goingwild/internal/analysis"
	"goingwild/internal/classify"
	"goingwild/internal/domains"
)

func main() {
	study, err := goingwild.NewStudy(goingwild.DefaultConfig(18))
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()
	ctx := context.Background()

	p := study.NewPlan()
	out := p.DomainStudy(50, []goingwild.Category{domains.Alexa, domains.Adult})
	if err := p.Run(ctx); err != nil {
		log.Fatal(err)
	}
	res := out.V

	fmt.Println(analysis.RenderFigure4(res.Fig4))

	country := func(ri int) string {
		return study.World.Geo().LookupU32(res.Resolvers[ri]).Country
	}
	for _, name := range []string{"facebook.com", "adultfinder.com", "youporn.com"} {
		cov := classify.CensorCoverage(res.Scan, res.Pre, country, name)
		type row struct {
			cc string
			v  float64
		}
		var rows []row
		for cc, v := range cov {
			if v > 0.10 {
				rows = append(rows, row{cc, v})
			}
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].v != rows[j].v {
				return rows[i].v > rows[j].v
			}
			return rows[i].cc < rows[j].cc
		})
		fmt.Printf("censorship compliance for %s:\n", name)
		for _, r := range rows {
			fmt.Printf("  %-3s %5.1f%% of the country's resolvers\n", r.cc, 100*r.v)
		}
		fmt.Println()
	}

	fmt.Printf("GFW double responses observed from %d resolvers\n",
		res.Report.Cases.DoubleResponseResolvers)
}
