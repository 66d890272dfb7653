// Package churn drives and aggregates the longitudinal study of Section
// 2: the 55 weekly Internet-wide scans (Figure 1), the per-country and
// per-RIR fluctuation tables (Tables 1 and 2), the IP-address-churn
// cohort study (Figure 2), and the vanished-network analysis.
package churn

import (
	"context"
	"sort"

	"goingwild/internal/dnswire"
	"goingwild/internal/geodb"
	"goingwild/internal/lfsr"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// Clock advances the simulated world between scans; both transports
// implement it.
type Clock interface {
	SetTime(wildnet.Time)
}

// Locator maps an address to its country and registry; the production
// pipeline uses the synthetic GeoIP registry.
type Locator func(u uint32) (country string, rir geodb.RIR)

// WeekObservation is one weekly scan's aggregate.
type WeekObservation struct {
	Week      int
	Total     int
	ByRCode   map[dnswire.RCode]int
	ByCountry map[string]int
	ByRIR     map[geodb.RIR]int
	// Responders is kept only for the weeks the Tracker is asked to
	// retain (the first and last, for Tables 1–2 and network forensics).
	Responders []scanner.Responder
}

// Series is the full weekly study.
type Series struct {
	Weeks []WeekObservation
}

// StudyConfig parameterizes the longitudinal run (StreamWeekly).
type StudyConfig struct {
	Order     uint
	Seed      uint32
	Weeks     int // number of weekly scans (the paper ran 55)
	Blacklist *lfsr.Blacklist
}

// First returns the series' opening observation, or nil when no weeks
// were scanned. An empty series is reachable (a -weeks 0 run), and this
// used to panic on s.Weeks[0]; callers must treat nil as "no data",
// which every renderer now does.
func (s *Series) First() *WeekObservation {
	if len(s.Weeks) == 0 {
		return nil
	}
	return &s.Weeks[0]
}

// Last returns the final weekly observation, or nil when the series is
// empty (see First).
func (s *Series) Last() *WeekObservation {
	if len(s.Weeks) == 0 {
		return nil
	}
	return &s.Weeks[len(s.Weeks)-1]
}

// FluctuationRow is one row of Table 1 / Table 2.
type FluctuationRow struct {
	Key         string
	Start, End  int
	Fluctuation int
	Percent     float64
}

// CountryFluctuation builds Table 1: the top-n countries by start-of-study
// responder count, with their end-of-study fluctuation.
func (s *Series) CountryFluctuation(topN int) []FluctuationRow {
	first, last := s.First(), s.Last()
	if first == nil {
		return nil
	}
	rows := make([]FluctuationRow, 0, len(first.ByCountry))
	for c, n := range first.ByCountry {
		e := last.ByCountry[c]
		row := FluctuationRow{Key: c, Start: n, End: e, Fluctuation: e - n}
		if n > 0 {
			row.Percent = 100 * float64(e-n) / float64(n)
		}
		rows = append(rows, row)
	}
	// rows came out of a map: break start-count ties by country code.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Start != rows[j].Start {
			return rows[i].Start > rows[j].Start
		}
		return rows[i].Key < rows[j].Key
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	return rows
}

// RIRFluctuation builds Table 2.
func (s *Series) RIRFluctuation() []FluctuationRow {
	first, last := s.First(), s.Last()
	if first == nil {
		return nil
	}
	rows := make([]FluctuationRow, 0, len(geodb.AllRIRs))
	for _, rir := range geodb.AllRIRs {
		n, e := first.ByRIR[rir], last.ByRIR[rir]
		row := FluctuationRow{Key: rir.String(), Start: n, End: e, Fluctuation: e - n}
		if n > 0 {
			row.Percent = 100 * float64(e-n) / float64(n)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Start > rows[j].Start })
	return rows
}

// CohortStudy tracks the week-0 responders over time (Figure 2).
type CohortStudy struct {
	// Cohort is the initial responder set.
	Cohort []uint32
	// SurvivalByWeek[k] is the fraction of the cohort still answering
	// at week k (index 0 is 1.0 by construction).
	SurvivalByWeek []float64
	// Day1Survival is the fraction still answering one day after the
	// initial scan.
	Day1Survival float64
	// DynamicRDNSShare is, among cohort members that disappeared after
	// one day and have rDNS, the fraction whose record carries a
	// dynamic-assignment token (§2.5 finds 67.4%).
	DynamicRDNSShare float64
	// RDNSCount is the number of one-day-churners with rDNS records.
	RDNSCount int
	// Survivors is the set still answering at the final probed week.
	Survivors []uint32
	// TopSurvivorNetworks is the share of final survivors concentrated
	// in the three largest networks (§2.5 finds a fifth of the 4.0%
	// survivors in just three providers).
	TopSurvivorNetworks float64
}

// ConcentrateSurvivors computes the top-3-network share of the final
// survivors using the given AS mapping.
func (c *CohortStudy) ConcentrateSurvivors(asOf func(u uint32) uint32) {
	counts := map[uint32]int{}
	for _, u := range c.Survivors {
		counts[asOf(u)]++
	}
	sizes := make([]int, 0, len(counts))
	for _, n := range counts {
		sizes = append(sizes, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	top := 0
	for i, n := range sizes {
		if i >= 3 {
			break
		}
		top += n
	}
	if len(c.Survivors) > 0 {
		c.TopSurvivorNetworks = float64(top) / float64(len(c.Survivors))
	}
}

// RunCohort probes the cohort weekly for `weeks` weeks and measures the
// day-1 churn plus the rDNS token analysis, resolving PTR records through
// the trusted resolver at trustedDNS. Cancellation checkpoints sit
// between weekly rounds; a cancelled run returns the partially filled
// study together with ctx.Err().
func RunCohort(ctx context.Context, sc *scanner.Scanner, clock Clock, cohort []uint32, weeks int, trustedDNS uint32) (*CohortStudy, error) {
	study := &CohortStudy{Cohort: cohort, SurvivalByWeek: make([]float64, weeks+1)}
	study.SurvivalByWeek[0] = 1.0
	n := float64(len(cohort))

	// Day 1.
	clock.SetTime(wildnet.Time{Week: 0, Day: 1})
	aliveDay1, err := sc.ProbeAliveContext(ctx, cohort)
	if err != nil {
		return study, err
	}
	study.Day1Survival = float64(len(aliveDay1)) / n

	// rDNS analysis of one-day churners.
	var withRDNS, dynamic int
	for _, u := range cohort {
		if aliveDay1[u] {
			continue
		}
		name, ok, err := sc.LookupPTR(ctx, trustedDNS, u)
		if err != nil {
			return study, err
		}
		if !ok {
			continue
		}
		withRDNS++
		if geodb.HasDynamicToken(name) {
			dynamic++
		}
	}
	study.RDNSCount = withRDNS
	if withRDNS > 0 {
		study.DynamicRDNSShare = float64(dynamic) / float64(withRDNS)
	}

	// Weekly survival.
	remaining := cohort
	for week := 1; week <= weeks; week++ {
		if err := ctx.Err(); err != nil {
			return study, err
		}
		clock.SetTime(wildnet.At(week))
		alive, err := sc.ProbeAliveContext(ctx, remaining)
		if err != nil {
			return study, err
		}
		study.SurvivalByWeek[week] = float64(len(alive)) / n
		// Only re-probe survivors: disappearing-and-returning hosts
		// are a different tenant behind a recycled address, exactly
		// what the paper's same-IP tracking excludes.
		next := remaining[:0]
		for _, u := range remaining {
			if alive[u] {
				next = append(next, u)
			}
		}
		remaining = next
	}
	study.Survivors = append([]uint32(nil), remaining...)
	return study, nil
}

// VanishedNetworks finds the networks (grouped by AS) that operated at
// least minStart responders in the first scan and none in the last, and
// classifies them with the verification-scan logic of §2.3: networks
// still visible from the secondary vantage block the primary scanner;
// networks above the threshold that vanished for both vantages applied
// DNS filtering; small ones simply shut down.
type VanishedNetwork struct {
	ASN    uint32
	Name   string
	Start  int
	Reason string // "blocks-scanner", "dns-filtering", "shutdown"
}

// ClassifyVanished compares first/last responder sets and the secondary
// verification scan.
func ClassifyVanished(first, last []scanner.Responder, secondary map[uint32]bool, asOf func(u uint32) (uint32, string), minStart, filterThreshold int) []VanishedNetwork {
	startByAS := map[uint32]int{}
	nameByAS := map[uint32]string{}
	for _, r := range first {
		asn, name := asOf(r.Addr)
		startByAS[asn]++
		nameByAS[asn] = name
	}
	lastByAS := map[uint32]int{}
	for _, r := range last {
		asn, _ := asOf(r.Addr)
		lastByAS[asn]++
	}
	secByAS := map[uint32]int{}
	for u, ok := range secondary {
		if !ok {
			continue
		}
		asn, _ := asOf(u)
		secByAS[asn]++
	}
	var out []VanishedNetwork
	for asn, n := range startByAS {
		if n < minStart || lastByAS[asn] > 0 {
			continue
		}
		v := VanishedNetwork{ASN: asn, Name: nameByAS[asn], Start: n}
		switch {
		case secByAS[asn] > 0:
			v.Reason = "blocks-scanner"
		case n >= filterThreshold:
			v.Reason = "dns-filtering"
		default:
			v.Reason = "shutdown"
		}
		out = append(out, v)
	}
	// out came out of a map: break start-count ties by ASN.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start > out[j].Start
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}
