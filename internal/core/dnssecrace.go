package core

import (
	"context"
	"crypto/ed25519"
	"fmt"

	"goingwild/internal/dnssec"
	"goingwild/internal/dnswire"
	"goingwild/internal/pipeline"
)

// DNSSECRaceResult quantifies §5's discussion: what a client relying on
// Chinese resolvers experiences for an injected domain, under the
// first-response strategy versus the validate-and-wait strategy.
type DNSSECRaceResult struct {
	Domain    string
	Signed    bool
	Resolvers int
	// First-response strategy.
	FirstPoisoned int
	FirstCorrect  int
	// Validate-and-wait strategy: accept only correctly signed
	// responses; a signed domain with no valid response is a failure
	// ("unavailable"), which §5 predicts for injectors that outrace
	// the legitimate answer.
	ValidatedCorrect  int
	ValidatedUnavail  int
	ValidatedFallback int // unsigned domain: validation cannot help
}

// DNSSECRace adds §5's experiment: every resolver of a country among the
// week's census is probed for one domain and both client strategies are
// evaluated. The zone key is fetched through the trusted path first (the
// "previous knowledge that the domain supports DNSSEC" precondition the
// paper spells out). A plan may race several domains; the stages carry
// the domain in their name.
func (p *Plan) DNSSECRace(week int, country, name string) *Out[*DNSSECRaceResult] {
	s, c, out := p.s, p.Census(week), &Out[*DNSSECRaceResult]{}
	var (
		pub    ed25519.PublicKey
		signed bool
	)
	c.follow("key-fetch@"+name, func(ctx context.Context) ([]pipeline.Count, error) {
		// Client-side key knowledge via a trusted DNSKEY lookup.
		msgs, err := s.Scanner.ProbeContext(ctx, s.trustedDNS, name, dnswire.TypeDNSKEY, dnswire.ClassIN)
		if err != nil {
			return nil, err
		}
		v := dnswire.GetView()
		defer dnswire.PutView(v)
		for _, msg := range msgs {
			if err := v.Reset(msg); err != nil {
				return nil, err
			}
			if d, ok := v.FirstAnswer(dnswire.TypeDNSKEY); ok {
				pub, signed = ed25519.PublicKey(d.(dnswire.DNSKEY).PublicKey), true
			}
		}
		return nil, nil
	})
	p.Add(pipeline.Stage{
		Name: "race-probes@" + name,
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			var resolvers []uint32
			for _, addr := range c.Resolvers {
				if s.World.Geo().LookupU32(addr).Country == country {
					resolvers = append(resolvers, addr)
				}
			}
			if len(resolvers) == 0 {
				return nil, fmt.Errorf("core: no NOERROR resolvers in %s", country)
			}
			legit, _ := s.TrustedResolve(ctx, name)
			legitSet := map[uint32]bool{}
			for _, a := range legit {
				legitSet[a] = true
			}
			v := dnswire.GetView()
			defer dnswire.PutView(v)
			var answers []uint32
			correct := func(msg []byte) bool {
				if v.Reset(msg) != nil {
					return false
				}
				answers = v.AppendAnswerA(answers[:0])
				for _, a := range answers {
					if legitSet[s.World.Mask(a)] {
						return true
					}
				}
				return false
			}

			res := &DNSSECRaceResult{Domain: name, Signed: signed, Resolvers: len(resolvers)}
			for _, r := range resolvers {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				msgs, err := s.Scanner.ProbeContext(ctx, r, name, dnswire.TypeA, dnswire.ClassIN)
				if err != nil {
					return nil, err
				}
				if len(msgs) == 0 {
					res.Resolvers--
					continue
				}
				// Strategy 1: first response wins.
				if correct(msgs[0]) {
					res.FirstCorrect++
				} else {
					res.FirstPoisoned++
				}
				// Strategy 2: wait for a correctly signed response.
				if !signed {
					res.ValidatedFallback++
					continue
				}
				// A cryptographically valid signature IS the correctness
				// criterion here — CDN answers legitimately differ from
				// the trusted vantage's, but only the zone owner can
				// sign them.
				validated := false
				for _, m := range msgs {
					if dnssec.ValidateResponse(pub, m) {
						validated = true
						res.ValidatedCorrect++
						break
					}
				}
				if !validated {
					res.ValidatedUnavail++
				}
			}
			out.V = res
			return []pipeline.Count{
				{Name: "country resolvers", Value: len(resolvers)},
				{Name: "first-response poisoned", Value: res.FirstPoisoned},
				{Name: "validated correct", Value: res.ValidatedCorrect},
			}, nil
		},
	})
	return out
}
