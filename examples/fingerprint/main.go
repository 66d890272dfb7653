// Fingerprint survey: the §2.4 classification of resolvers by DNS server
// software (CHAOS version.bind / version.server queries → Table 3) and by
// hardware device (FTP/HTTP/HTTPS/SSH/Telnet banner grabbing against the
// regular-expression database → Table 4).
package main

import (
	"context"
	"fmt"
	"log"

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

	// Dec 17, 2014 is week 46 of the study.
	chaos, n, err := study.RunChaosContext(ctx, 46)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CHAOS scan over %d NOERROR resolvers (device DB: %d expressions)\n\n",
		n, fingerprint.RuleCount())
	fmt.Println(analysis.RenderTable3(chaos, 10))

	devices, err := study.RunDevicesContext(ctx, 46)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(analysis.RenderTable4(devices))

	fmt.Println("most common fingerprinted models:")
	shown := 0
	for label, count := range devices.Labels {
		fmt.Printf("  %-20s %d\n", label, count)
		if shown++; shown >= 8 {
			break
		}
	}
}
