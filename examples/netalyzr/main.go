// Netalyzr-style sessions: the complementary vantage of §6. Open-resolver
// scans can only see resolvers that answer the public Internet; volunteer
// sessions *inside* access networks exercise the closed ISP resolvers and
// surface the same manipulation — notably the NXDOMAIN monetization
// Weaver et al. reported — among servers no scan can reach.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"goingwild"

	"goingwild/internal/analysis"
)

func main() {
	study, err := goingwild.NewStudy(goingwild.DefaultConfig(18))
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()

	p := study.NewPlan()
	nz := p.Netalyzr(50, 1200)
	if err := p.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	s := nz.V
	fmt.Println(analysis.RenderNetalyzr(s))

	// Where do the monetizing ISPs sit?
	byCountry := map[string]int{}
	sessionsByCountry := map[string]int{}
	for _, sess := range s.Sessions {
		sessionsByCountry[sess.Country]++
		if sess.NXMonetized {
			byCountry[sess.Country]++
		}
	}
	type row struct {
		cc   string
		rate float64
		n    int
	}
	var rows []row
	for cc, n := range byCountry {
		if sessionsByCountry[cc] >= 20 {
			rows = append(rows, row{cc, float64(n) / float64(sessionsByCountry[cc]), n})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].rate != rows[j].rate {
			return rows[i].rate > rows[j].rate
		}
		return rows[i].cc < rows[j].cc
	})
	fmt.Println("NXDOMAIN monetization by country (≥20 sessions):")
	for i, r := range rows {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-3s %5.1f%% of sessions (%d hits)\n", r.cc, 100*r.rate, r.n)
	}
}
