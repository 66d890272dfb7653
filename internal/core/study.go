// Package core orchestrates the complete reproduction: the longitudinal
// resolver study of Section 2 (weekly scans, fingerprinting, churn, cache
// snooping) and the Figure-3 processing chain of Sections 3–4 (domain
// scans → prefiltering → data acquisition → clustering → labeling →
// case studies).
package core

import (
	"context"
	"fmt"

	"goingwild/internal/churn"
	"goingwild/internal/devices"
	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/fetch"
	"goingwild/internal/fingerprint"
	"goingwild/internal/geodb"
	"goingwild/internal/metrics"
	"goingwild/internal/pipeline"
	"goingwild/internal/prand"
	"goingwild/internal/prefilter"
	"goingwild/internal/scanner"
	"goingwild/internal/snoop"
	"goingwild/internal/websim"
	"goingwild/internal/wildnet"
)

// Config parameterizes a study.
type Config struct {
	// Order is the simulated address-space width (the paper's Internet
	// is order 32; tests use 16–18, benches 20+).
	Order uint
	// Seed selects the simulated world.
	Seed uint64
	// ScanSeed seeds the scanner's LFSR permutations.
	ScanSeed uint32
	// Weeks is the longitudinal study length (the paper ran 55).
	Weeks int
	// Loss is the per-packet loss probability.
	Loss float64
	// Workers is the scanner's sender concurrency.
	Workers int
	// Faults layers the deterministic fault model over the world
	// (bursty loss, latency, duplication, garbling, rate limiting,
	// flaps — see wildnet.FaultConfig). The zero value injects nothing
	// and keeps every output byte-identical to a fault-free study.
	Faults wildnet.FaultConfig
	// SweepRetries is how many retry rounds re-probe a sweep's silent
	// targets (see scanner.Options). Zero keeps the census semantics: one
	// probe per target.
	SweepRetries int
	// Metrics, when set, is threaded through every layer of the study —
	// the scanners (primary and secondary vantage), the world's fault
	// layer, and the plans' stage events — so one registry accumulates the
	// whole run. A pure side channel: study outputs are byte-identical
	// with and without it.
	Metrics *metrics.Registry
}

// DefaultConfig mirrors the paper's setup at a reduced scale.
func DefaultConfig(order uint) Config {
	return Config{
		Order:    order,
		Seed:     0x60176A11D,
		ScanSeed: 0x5EED,
		Weeks:    55,
		Loss:     0.002,
		Workers:  8,
	}
}

// ChaosProfileConfig returns DefaultConfig with a named chaos profile
// (wildnet.ChaosProfileNames) layered on, plus the retry tuning that
// lets the scanner ride over the injected faults: profiles with loss
// get sweep retransmission rounds so census counts stay within the
// chaos-test tolerances. The "clean" profile is exactly DefaultConfig.
func ChaosProfileConfig(order uint, profile string) (Config, error) {
	cfg := DefaultConfig(order)
	faults, err := wildnet.ChaosProfile(profile)
	if err != nil {
		return Config{}, err
	}
	cfg.Faults = faults
	if faults.Enabled() {
		cfg.SweepRetries = 2
	}
	return cfg, nil
}

// Study owns a world and the measurement apparatus pointed at it.
type Study struct {
	Cfg       Config
	World     *wildnet.World
	Transport *wildnet.MemTransport
	Scanner   *scanner.Scanner
	Web       *websim.Server

	// Observer, when set, receives every pipeline stage event of every
	// plan — start, done (with tuple counts and elapsed time), failed. It
	// is a side channel only: study results never depend on it, so
	// attaching a progress printer cannot perturb the determinism
	// contract.
	Observer pipeline.Observer

	trustedDNS uint32
	// Caches for the prefilter's measurement-channel lookups.
	trustedCache map[string]trustedEntry
	rdnsCache    map[uint32]rdnsEntry
}

type trustedEntry struct {
	addrs []uint32
	rcode dnswire.RCode
}

type rdnsEntry struct {
	name string
	ok   bool
}

// scanOpts is the one place the study's scanner tuning is assembled, so
// the primary and secondary-vantage scanners can never drift apart.
func (c Config) scanOpts() scanner.Options {
	return scanner.Options{
		Workers:      c.Workers,
		SettleDelay:  scanner.NoSettle,
		SweepRetries: c.SweepRetries,
		Metrics:      c.Metrics,
	}
}

// NewStudy builds the world and wires the measurement stack to it. A
// negative study length is refused here, once, for every binary: it
// arrives from a command line (-weeks; wildsvc's -epochs).
func NewStudy(cfg Config) (*Study, error) {
	if cfg.Weeks < 0 {
		return nil, fmt.Errorf("core: negative study length %d: -weeks (-epochs on wildsvc) must be at least 0", cfg.Weeks)
	}
	wcfg := wildnet.DefaultConfig(cfg.Order)
	wcfg.Seed = cfg.Seed
	wcfg.Loss = cfg.Loss
	wcfg.Faults = cfg.Faults
	wcfg.Metrics = cfg.Metrics
	w, err := wildnet.NewWorld(wcfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	sc := scanner.New(tr, cfg.scanOpts())
	web := websim.New(w, wildnet.At(0))
	s := &Study{
		Cfg:          cfg,
		World:        w,
		Transport:    tr,
		Scanner:      sc,
		Web:          web,
		trustedDNS:   w.RoleAddr(wildnet.RoleTrustedDNS, 0),
		trustedCache: map[string]trustedEntry{},
		rdnsCache:    map[uint32]rdnsEntry{},
	}
	return s, nil
}

// Close releases the transport.
func (s *Study) Close() error { return s.Transport.Close() }

// SetWeek moves both the network and the application layer to a study
// week.
func (s *Study) SetWeek(week int) {
	s.Transport.SetTime(wildnet.At(week))
	s.Web.SetTime(wildnet.At(week))
}

// The lookups below sit under callback types (prefilter.Env, fetch.Client,
// classify.Pipeline) that carry no context and no error, so each is bound
// to its stage's context where the callback is built. A lookup the
// context cuts short reads as unanswered and is never cached; the stage
// that built the callback reports ctx.Err() when its consumer returns.

// TrustedResolve performs a cached A lookup at the team's trusted
// resolvers (a measurement channel, not world ground truth).
func (s *Study) TrustedResolve(ctx context.Context, name string) ([]uint32, dnswire.RCode) {
	if e, ok := s.trustedCache[name]; ok {
		return e.addrs, e.rcode
	}
	addrs, rcode, ok, err := s.Scanner.LookupA(ctx, s.trustedDNS, name)
	if !ok && err == nil {
		// One retry; the trusted path should be reliable.
		addrs, rcode, ok, err = s.Scanner.LookupA(ctx, s.trustedDNS, name)
	}
	if err != nil {
		// Cut short, not unanswered: nothing learned, nothing cached.
		return nil, dnswire.RCodeServFail
	}
	if !ok {
		rcode = dnswire.RCodeServFail
	}
	s.trustedCache[name] = trustedEntry{addrs: addrs, rcode: rcode}
	return addrs, rcode
}

// trustedResolver is TrustedResolve in the shape its consumers take.
func (s *Study) trustedResolver(ctx context.Context) func(name string) ([]uint32, dnswire.RCode) {
	return func(name string) ([]uint32, dnswire.RCode) { return s.TrustedResolve(ctx, name) }
}

// RDNS resolves an address's PTR record through the trusted resolvers.
func (s *Study) RDNS(ctx context.Context, ip uint32) (string, bool) {
	if e, ok := s.rdnsCache[ip]; ok {
		return e.name, e.ok
	}
	name, ok, err := s.Scanner.LookupPTR(ctx, s.trustedDNS, ip)
	if !ok && err == nil {
		name, ok, err = s.Scanner.LookupPTR(ctx, s.trustedDNS, ip)
	}
	if err != nil {
		return "", false
	}
	s.rdnsCache[ip] = rdnsEntry{name: name, ok: ok}
	return name, ok
}

// client builds the acquisition client of one stage: redirect targets are
// resolved at the resolver that produced the tuple, under the stage's
// context.
func (s *Study) client(ctx context.Context) *fetch.Client {
	return fetch.NewClient(s.Web, func(resolver uint32, name string) ([]uint32, bool) {
		addrs, rcode, ok, _ := s.Scanner.LookupA(ctx, resolver, name)
		return addrs, ok && rcode == dnswire.RCodeNoError && len(addrs) > 0
	})
}

// locator adapts the registry for the churn package.
func (s *Study) locator() churn.Locator {
	return func(u uint32) (string, geodb.RIR) {
		loc := s.World.Geo().LookupU32(u)
		return loc.Country, loc.RIR
	}
}

// SweepAtContext runs a single Internet-wide scan at a given week, on
// every call; sharing one week's scan between experiments is a Plan's job.
func (s *Study) SweepAtContext(ctx context.Context, week int) (*scanner.SweepResult, error) {
	s.SetWeek(week)
	return s.Scanner.SweepContext(ctx, s.Cfg.Order, s.Cfg.ScanSeed+uint32(week)*7919, s.World.ScanBlacklist())
}

// Cohort adds the tracking of the week-0 responders (Figure 2, §2.5): a
// week-0 census of its own — a different week from the report's — feeding
// a weekly re-probe stage.
func (p *Plan) Cohort(weeks int) *Out[*churn.CohortStudy] {
	s, out := p.s, &Out[*churn.CohortStudy]{}
	var cohort []uint32
	p.Add(pipeline.Stage{
		Name: "week0-scan",
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			res, err := s.SweepAtContext(ctx, 0)
			if err != nil {
				return nil, err
			}
			cohort = make([]uint32, 0, res.Total())
			for _, r := range res.Responders {
				cohort = append(cohort, r.Addr)
			}
			return []pipeline.Count{{Name: "cohort members", Value: len(cohort)}}, nil
		},
	})
	p.Add(pipeline.Stage{
		Name: "cohort-track",
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			var err error
			out.V, err = churn.RunCohort(ctx, s.Scanner, s.Transport, cohort, weeks, s.trustedDNS)
			if err != nil {
				return nil, err
			}
			return []pipeline.Count{{Name: "final survivors", Value: len(out.V.Survivors)}}, nil
		},
	})
	return out
}

// Chaos adds the CHAOS fingerprinting scan of §2.4 (Table 3) over the
// week's census.
func (p *Plan) Chaos(week int) *Out[*fingerprint.ChaosSurvey] {
	c, out := p.Census(week), &Out[*fingerprint.ChaosSurvey]{}
	c.follow("chaos-scan", func(ctx context.Context) ([]pipeline.Count, error) {
		chaos, err := p.s.Scanner.ScanChaosContext(ctx, c.Resolvers)
		if err != nil {
			return nil, err
		}
		out.V = fingerprint.SurveyChaos(chaos)
		return []pipeline.Count{{Name: "chaos responders", Value: chaos.Responded()}}, nil
	})
	return out
}

// bannerSource adapts the world's TCP services for the fingerprinter.
type bannerSource struct {
	w *wildnet.World
	t wildnet.Time
}

// Banner implements fingerprint.BannerSource.
func (b bannerSource) Banner(addr uint32, proto devices.Proto) (string, bool) {
	return b.w.ServiceBanner(addr, proto, b.t)
}

// Devices adds the device fingerprinting of §2.4 (Table 4) over the
// week's census.
func (p *Plan) Devices(week int) *Out[*fingerprint.DeviceSurvey] {
	c, out := p.Census(week), &Out[*fingerprint.DeviceSurvey]{}
	c.follow("device-fingerprint", func(ctx context.Context) ([]pipeline.Count, error) {
		out.V = fingerprint.SurveyDevices(bannerSource{p.s.World, wildnet.At(week)}, c.Resolvers)
		return []pipeline.Count{{Name: "banner responders", Value: out.V.Responsive}}, nil
	})
	return out
}

// Utilization adds the 36-hour cache-snooping study of §2.6 over the
// week's census.
func (p *Plan) Utilization(week int) *Out[*snoop.Result] {
	c, out := p.Census(week), &Out[*snoop.Result]{}
	c.follow("cache-snoop", func(ctx context.Context) ([]pipeline.Count, error) {
		cfg := snoop.DefaultConfig(domains.SnoopedTLDs)
		cfg.Week = week
		var err error
		if out.V, err = snoop.Run(ctx, p.s.Scanner, p.s.Transport, c.Resolvers, cfg); err != nil {
			return nil, err
		}
		return []pipeline.Count{
			{Name: "snoop responders", Value: out.V.Responded},
			{Name: "in-use resolvers", Value: out.V.Counts[snoop.ClassInUse]},
		}, nil
	})
	return out
}

// VerificationResult compares the primary and secondary vantage scans
// (§2.2: the secondary /8 vantage reveals networks blocking the primary).
type VerificationResult struct {
	Primary, Secondary   int
	OnlySecondary        int
	OnlySecondaryByRCode map[dnswire.RCode]int
	MissedNOERRORShare   float64
}

// Verification adds the secondary-vantage verification scan: the week's
// census is the primary scan, the secondary vantage sweeps on a
// transport of its own, and a comparison stage joins the two.
func (p *Plan) Verification(week int) *Out[*VerificationResult] {
	s, c, out := p.s, p.Census(week), &Out[*VerificationResult]{}
	var secondary *scanner.SweepResult
	p.Add(pipeline.Stage{
		Name: "secondary-scan",
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			var err error
			if secondary, err = s.sweepSecondary(ctx, week, s.Cfg.ScanSeed+uint32(week)*7919+1); err != nil {
				return nil, err
			}
			return []pipeline.Count{{Name: "secondary responders", Value: secondary.Total()}}, nil
		},
	})
	p.Add(pipeline.Stage{
		Name: "compare-vantages",
		Run: func(ctx context.Context) ([]pipeline.Count, error) {
			primary := c.Sweep
			primarySet := make(map[uint32]bool, primary.Total())
			for _, r := range primary.Responders {
				primarySet[r.Addr] = true
			}
			out.V = &VerificationResult{
				Primary:              primary.Total(),
				Secondary:            secondary.Total(),
				OnlySecondaryByRCode: map[dnswire.RCode]int{},
			}
			var missedNOERROR int
			for _, r := range secondary.Responders {
				if primarySet[r.Addr] {
					continue
				}
				out.V.OnlySecondary++
				out.V.OnlySecondaryByRCode[r.RCode]++
				if r.RCode == dnswire.RCodeNoError {
					missedNOERROR++
				}
			}
			if n := primary.ByRCode[dnswire.RCodeNoError]; n > 0 {
				out.V.MissedNOERRORShare = float64(missedNOERROR) / float64(n)
			}
			return []pipeline.Count{{Name: "only-secondary responders", Value: out.V.OnlySecondary}}, nil
		},
	})
	return out
}

// sweepSecondary sweeps the full space at week from the secondary
// vantage, on a transport of its own.
func (s *Study) sweepSecondary(ctx context.Context, week int, seed uint32) (*scanner.SweepResult, error) {
	tr2 := wildnet.NewMemTransport(s.World, wildnet.VantageSecondary)
	defer tr2.Close()
	tr2.SetTime(wildnet.At(week))
	return scanner.New(tr2, s.Cfg.scanOpts()).SweepContext(ctx, s.Cfg.Order, seed, s.World.ScanBlacklist())
}

// SecondaryAliveSetContext probes the full space from the secondary
// vantage and returns the responding set, for the vanished-network
// classification.
func (s *Study) SecondaryAliveSetContext(ctx context.Context, week int) (map[uint32]bool, error) {
	res, err := s.sweepSecondary(ctx, week, s.Cfg.ScanSeed+99)
	if err != nil {
		return nil, err
	}
	out := make(map[uint32]bool, res.Total())
	for _, r := range res.Responders {
		out[r.Addr] = true
	}
	return out, nil
}

// ProbeCountryInjection reproduces the §4.2 succeeding experiment: DNS
// queries for name are sent to randomly chosen addresses of a country
// (most of which run no resolver); responses for the probed name without
// responses for a control name betray an in-transit injector like the
// Great Firewall. Address sampling uses the public geographic registry.
func (s *Study) ProbeCountryInjection(ctx context.Context, country, name string) bool {
	const samples = 24
	geo := s.World.Geo()
	src := prand32(s.Cfg.Seed ^ prand.FNV(country) ^ prand.FNV(name))
	hits := 0
	tried := 0
	for i := 0; tried < samples && i < samples*64; i++ {
		u := s.World.Mask(src())
		if geo.LookupU32(u).Country != country {
			continue
		}
		tried++
		// A cut-short exchange reads as silence, like a lost packet.
		if msgs, _ := s.Scanner.ProbeContext(ctx, u, name, dnswire.TypeA, dnswire.ClassIN); len(msgs) == 0 {
			continue
		}
		// Control: a name no injector cares about must stay silent
		// from the same address (otherwise it is simply a resolver).
		if msgs, _ := s.Scanner.ProbeContext(ctx, u, domains.GroundTruth, dnswire.TypeA, dnswire.ClassIN); len(msgs) == 0 {
			hits++
			if hits >= 2 {
				return true
			}
		}
	}
	return false
}

// prand32 returns a deterministic 32-bit stream for address sampling.
func prand32(seed uint64) func() uint32 {
	state := seed
	return func() uint32 {
		state = state*6364136223846793005 + 1442695040888963407
		return uint32(state >> 32)
	}
}

// PrefilterEnv builds the prefilter's measurement environment, its
// lookups bound to ctx.
func (s *Study) PrefilterEnv(ctx context.Context) prefilter.Env {
	client := s.client(ctx)
	return prefilter.Env{
		TrustedResolve: s.trustedResolver(ctx),
		RDNS:           func(ip uint32) (string, bool) { return s.RDNS(ctx, ip) },
		ASOf:           s.World.ASNOf,
		CertProbe: func(ip uint32, serverName string, sni bool) (prefilter.Cert, bool) {
			c, ok := client.CertProbe(ip, serverName, sni)
			if !ok {
				return prefilter.Cert{}, false
			}
			return prefilter.Cert{
				Valid:      c.Valid,
				SelfSigned: c.SelfSigned,
				CommonName: c.CommonName,
				DNSNames:   c.DNSNames,
			}, true
		},
		TrustedCDNNames: []string{"static.cdn-global.example"},
	}
}
