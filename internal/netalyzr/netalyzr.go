// Package netalyzr implements the complementary vantage the paper's
// related-work section credits to Weaver et al.: instead of scanning open
// resolvers from outside, volunteer *client sessions inside access
// networks* exercise their ISP's (closed) resolver and report what its
// answers look like. §6 observes that combining both approaches
// "presumably increases the detection of forged DNS resolutions" — this
// package is that combination.
package netalyzr

import (
	"goingwild/internal/dnswire"
	"goingwild/internal/prand"
	"goingwild/internal/wildnet"
)

// SessionResult is one volunteer session's findings.
type SessionResult struct {
	Client   uint32
	Resolver uint32
	Country  string
	// NXMonetized reports NXDOMAIN answers rewritten into addresses
	// (DNS error monetization, Weaver et al.'s headline finding).
	NXMonetized bool
	// Manipulated reports at least one existing domain resolved to an
	// address outside the trusted answer's AS neighborhood.
	Manipulated bool
	// Refused marks sessions whose resolver rejected the client.
	Refused bool
}

// Study aggregates sessions.
type Study struct {
	Sessions   []SessionResult
	Monetizers int
	Manipul    int
	Refusals   int
}

// Config parameterizes the volunteer study.
type Config struct {
	// Sessions is the number of simulated volunteer clients.
	Sessions int
	// Seed draws the client sample.
	Seed uint64
	// Week positions the sessions on the study timeline.
	Week int
	// ProbeNX is the nonexistent name used for monetization checks.
	ProbeNX string
	// ProbeDomains are existing names checked for manipulation.
	ProbeDomains []string
	// TrustedResolve supplies the reference answers (the session's
	// equivalent of Netalyzr's backend checks).
	TrustedResolve func(name string) ([]uint32, dnswire.RCode)
	// SameNeighborhood reports whether an answer address is an
	// acceptable variant of a trusted one (same AS).
	SameNeighborhood func(a, b uint32) bool
}

// Run simulates volunteer sessions against their in-network resolvers.
func Run(w *wildnet.World, cfg Config) *Study {
	study := &Study{}
	src := prand.NewSource(cfg.Seed ^ 0x4E7A)
	infraBase, _ := w.InfraRange()
	for len(study.Sessions) < cfg.Sessions {
		client := w.Mask(uint32(src.Next()))
		if client >= infraBase {
			continue // no volunteers inside measurement infrastructure
		}
		res := runSession(w, client, cfg)
		study.Sessions = append(study.Sessions, res)
		if res.Refused {
			study.Refusals++
			continue
		}
		if res.NXMonetized {
			study.Monetizers++
		}
		if res.Manipulated {
			study.Manipul++
		}
	}
	return study
}

func runSession(w *wildnet.World, client uint32, cfg Config) SessionResult {
	t := wildnet.Time{Week: cfg.Week}
	res := SessionResult{
		Client:   client,
		Resolver: w.ClosedResolverOf(client),
		Country:  w.Geo().LookupU32(client).Country,
	}
	ask := func(name string) (*dnswire.Message, bool) {
		q := dnswire.NewQuery(uint16(prand.Hash(uint64(client), prand.FNV(name))), name, dnswire.TypeA, dnswire.ClassIN)
		resps := w.HandleClientDNS(client, q, t)
		if len(resps) == 0 {
			return nil, false
		}
		return resps[0].Msg, true
	}

	// NXDOMAIN monetization check.
	if m, ok := ask(cfg.ProbeNX); ok {
		if m.Header.RCode == dnswire.RCodeRefused {
			res.Refused = true
			return res
		}
		if m.Header.RCode == dnswire.RCodeNoError && len(m.AnswerAddrs()) > 0 {
			res.NXMonetized = true
		}
	}

	// Manipulation check against trusted answers.
	for _, name := range cfg.ProbeDomains {
		m, ok := ask(name)
		if !ok || m.Header.RCode != dnswire.RCodeNoError {
			continue
		}
		trusted, rc := cfg.TrustedResolve(name)
		if rc != dnswire.RCodeNoError || len(trusted) == 0 {
			continue
		}
		for _, a := range m.AnswerAddrs() {
			b := a.As4()
			u := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
			okAddr := false
			for _, tr := range trusted {
				if u == tr || (cfg.SameNeighborhood != nil && cfg.SameNeighborhood(u, tr)) {
					okAddr = true
					break
				}
			}
			if !okAddr {
				res.Manipulated = true
			}
		}
	}
	return res
}
