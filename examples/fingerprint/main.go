// Fingerprint survey: the §2.4 classification of resolvers by DNS server
// software (CHAOS version.bind / version.server queries → Table 3) and by
// hardware device (FTP/HTTP/HTTPS/SSH/Telnet banner grabbing against the
// regular-expression database → Table 4).
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"goingwild"

	"goingwild/internal/analysis"
	"goingwild/internal/fingerprint"
)

func main() {
	study, err := goingwild.NewStudy(goingwild.DefaultConfig(17))
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()
	ctx := context.Background()

	// Dec 17, 2014 is week 46 of the study; both surveys read its census.
	p := study.NewPlan()
	chaos, devices := p.Chaos(46), p.Devices(46)
	if err := p.Run(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CHAOS scan over %d NOERROR resolvers (device DB: %d expressions)\n\n",
		len(p.Census(46).Resolvers), fingerprint.RuleCount())
	fmt.Println(analysis.RenderTable3(chaos.V, 10))
	fmt.Println(analysis.RenderTable4(devices.V))

	count := devices.V.Labels
	labels := make([]string, 0, len(count))
	for label := range count {
		labels = append(labels, label)
	}
	sort.Slice(labels, func(i, j int) bool {
		if count[labels[i]] != count[labels[j]] {
			return count[labels[i]] > count[labels[j]]
		}
		return labels[i] < labels[j]
	})
	fmt.Println("most common fingerprinted models:")
	for _, label := range labels[:min(8, len(labels))] {
		fmt.Printf("  %-20s %d\n", label, count[label])
	}
}
