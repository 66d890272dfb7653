// Amplification survey: the DDoS-abuse angle that motivates the paper's
// first section. ANY queries measure each resolver's bandwidth
// amplification factor; the worst decile is what attackers harvest.
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
	study, err := goingwild.NewStudy(goingwild.DefaultConfig(17))
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()
	ctx := context.Background()

	p := study.NewPlan()
	amp := p.Amplification(50, "chase.com")
	if err := p.Run(ctx); err != nil {
		log.Fatal(err)
	}
	survey := amp.V
	fmt.Println(analysis.RenderAmplification(survey, len(p.Census(50).Resolvers)))

	// The harvest list an attacker would build: top amplifiers first.
	ms := survey.Measurements
	sort.Slice(ms, func(i, j int) bool { return ms[i].BAF() > ms[j].BAF() })
	fmt.Println("top amplifiers:")
	for i, m := range ms {
		if i >= 5 {
			break
		}
		fmt.Printf("  %3d bytes in → %5d bytes out   (BAF %.1f)\n",
			m.RequestSize, m.ResponseSize, m.BAF())
	}
}
