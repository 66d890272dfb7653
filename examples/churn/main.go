// Churn study: the Section-2 longitudinal view — weekly scans of the
// whole space (Figure 1), country/RIR fluctuation (Tables 1–2), the IP
// churn of the first-scan cohort (Figure 2), and the utilization study
// via cache snooping (§2.6).
package main

import (
	"context"
	"fmt"
	"log"

	"goingwild"

	"goingwild/internal/analysis"
)

func main() {
	cfg := goingwild.DefaultConfig(17)
	cfg.Weeks = 14 // a quarter-length run keeps the example fast
	study, err := goingwild.NewStudy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()
	ctx := context.Background()
	scale := goingwild.ScaleOf(study)

	p := study.NewPlan()
	series, cohort, util := p.WeeklySeries(nil), p.Cohort(10), p.Utilization(43)
	if err := p.Run(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println(analysis.RenderFigure1(series.V, scale))
	fmt.Println(analysis.RenderTable1(series.V, scale, 10))
	fmt.Println(analysis.RenderTable2(series.V, scale))
	fmt.Println(analysis.RenderFigure2(cohort.V))
	fmt.Println(analysis.RenderUtilization(util.V))
}
