// DNSSEC race: the §5 discussion made executable. A client behind a
// Chinese resolver asks for an injected domain; the forged answer always
// arrives first. Accepting the first response yields a poisoned lookup;
// waiting for a correctly signed response (Ed25519, RFC 8080) removes the
// poisoning — but only turns it into unavailability unless the legitimate
// signed answer ever arrives.
package main

import (
	"context"
	"fmt"
	"log"

	"goingwild"

	"goingwild/internal/analysis"
)

func main() {
	study, err := goingwild.NewStudy(goingwild.DefaultConfig(18))
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()
	ctx := context.Background()

	p := study.NewPlan()
	signed, unsigned := p.DNSSECRace(50, "CN", "wikileaks.org"), p.DNSSECRace(50, "CN", "facebook.com")
	if err := p.Run(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println(analysis.RenderDNSSECRace(signed.V))
	fmt.Println(analysis.RenderDNSSECRace(unsigned.V))

	fmt.Println("The validate-and-wait strategy only helps when the client already")
	fmt.Println("knows the zone is signed (§5) — otherwise the unsigned fallback")
	fmt.Println("reopens the race the injector always wins.")
}
