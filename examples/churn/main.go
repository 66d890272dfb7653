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

	series, err := study.RunWeeklySeriesContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(analysis.RenderFigure1(series, scale))
	fmt.Println(analysis.RenderTable1(series, scale, 10))
	fmt.Println(analysis.RenderTable2(series, scale))

	cohort, err := study.RunCohortStudyContext(ctx, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(analysis.RenderFigure2(cohort))

	util, err := study.RunUtilizationContext(ctx, 43)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(analysis.RenderUtilization(util))
}
