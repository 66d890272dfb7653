package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"

	"goingwild/internal/domains"
)

// Every input the benchmark hands the programs is a pure function of
// -seed: the world seed itself (core.Config.Seed / the CLIs' -seed),
// the census week schedule, and the serve workloads' address streams.

// lcg is Knuth's MMIX linear congruential generator; next returns the
// high 32 bits, whose period and equidistribution are the good ones.
type lcg uint64

// newLCG derives an independent stream from (seed, stream) with one
// splitmix64 round, so connection 0 and connection 1 of a serve workload
// do not walk the same sequence one step apart.
func newLCG(seed, stream uint64) *lcg {
	z := seed + (stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	g := lcg(z ^ (z >> 31))
	return &g
}

func (g *lcg) next() uint32 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint32(*g >> 32)
}

// censusWeekSet is the study weeks a census workload sweeps. A sweep's
// cost depends on its week (the world's churn model makes later weeks
// dearer), so every window covers the same weeks equally often: it runs
// whole cycles over this set, and only the order within a cycle is drawn
// from the seed. Ten weeks spread over the paper's 55 keep a cycle short
// enough that a window holds several.
var censusWeekSet = []int{0, 5, 10, 15, 20, 25, 30, 35, 40, 45}

// censusTruthWeek is the week whose planted ground truth set-up walks
// the world for. It is fixed, not drawn, so set-up costs the same
// whatever the seed.
const censusTruthWeek = 0

// weekSchedule is the order in which a census workload visits
// censusWeekSet in each cycle: a seeded Fisher–Yates permutation.
func weekSchedule(seed uint64) []int {
	g := newLCG(seed, 0)
	weeks := append([]int(nil), censusWeekSet...)
	for i := len(weeks) - 1; i > 0; i-- {
		j := int(g.next() % uint32(i+1))
		weeks[i], weeks[j] = weeks[j], weeks[i]
	}
	return weeks
}

// lookupDraw is one generated serve request before it is bound to the
// daemon's pool: either the V-th pool address (mod pool size) or, on the
// churn mix, the V-th in-space address.
type lookupDraw struct {
	Random bool
	V      uint32
}

// churnRandomEvery makes one request in five on serve-churn a uniformly
// random in-space address (the 20 % that mostly miss the store).
const churnRandomEvery = 5

// lookupStream generates one connection's request sequence.
type lookupStream struct {
	g     *lcg
	churn bool
}

func newLookupStream(seed uint64, conn int, churn bool) *lookupStream {
	return &lookupStream{g: newLCG(seed, uint64(conn)+1), churn: churn}
}

func (s *lookupStream) next() lookupDraw {
	d := lookupDraw{}
	if s.churn {
		d.Random = s.g.next()%churnRandomEvery == 0
	}
	d.V = s.g.next()
	return d
}

// digestInputs is how many generated inputs input_digest covers.
const digestInputs = 10000

// inputDigest hashes the first 10k inputs the named workload generates
// from seed, so two runs can prove they were driven identically.
func inputDigest(workload string, seed uint64) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(seed)
	switch workload {
	case "census-clean", "census-hostile":
		sched := weekSchedule(seed)
		for i := 0; i < digestInputs; i++ {
			put(uint64(sched[i%len(sched)]))
		}
	case "domain-scan":
		put(domainScanWeek)
		h.Write([]byte(strings.Join(domains.Names(), "\n")))
	case "study-report":
		h.Write([]byte(strings.Join(reportArgs(fullSize, seed, false), " ")))
	case "serve-hit", "serve-churn":
		s := newLookupStream(seed, 0, workload == "serve-churn")
		for i := 0; i < digestInputs; i++ {
			d := s.next()
			if d.Random {
				put(1)
			} else {
				put(0)
			}
			put(uint64(d.V))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
