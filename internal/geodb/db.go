// Package geodb is the synthetic replacement for the MaxMind GeoIP and
// AS/RIR registries the paper relies on (§2.3). It deterministically
// partitions the (possibly scaled-down) IPv4 address space into network
// blocks, each owned by an autonomous system of some country, so that
// country-, AS-, and RIR-level aggregations of the measured resolver
// population reproduce the paper's distributions.
package geodb

import (
	"fmt"
	"net/netip"

	"goingwild/internal/prand"
)

// ASKind classifies an autonomous system; the paper finds 76.4% of the
// Top-25-network resolvers in broadband telecommunication providers.
type ASKind uint8

// AS kinds.
const (
	Broadband ASKind = iota
	Hosting
	Academic
	Enterprise
)

// String returns the kind's name.
func (k ASKind) String() string {
	switch k {
	case Broadband:
		return "broadband"
	case Hosting:
		return "hosting"
	case Academic:
		return "academic"
	case Enterprise:
		return "enterprise"
	default:
		return "unknown"
	}
}

// Fate describes what happened to the 28 networks that operated >1,000
// resolvers in Jan 2014 but showed none at the end of the study (§2.3):
// 21 blocked the scanner's primary vantage (still answered the
// verification scan), five added real DNS ingress/egress filtering, and
// two shut all resolvers down.
type Fate uint8

// Network fates.
const (
	FateNone          Fate = iota
	FateBlocksScanner      // blocks the primary vantage only
	FateFiltering          // DNS filtered for everyone
	FateShutdown           // resolvers switched off
)

// String returns the fate's name.
func (f Fate) String() string {
	switch f {
	case FateNone:
		return "none"
	case FateBlocksScanner:
		return "blocks-scanner"
	case FateFiltering:
		return "dns-filtering"
	case FateShutdown:
		return "shutdown"
	default:
		return "unknown"
	}
}

// Collapse is a population-collapse event: from Week onward only Survive
// of the AS's resolvers remain (the Argentinean telecom dropped from
// 737,424 resolvers to <17,000; a South Korean ISP from 434,567 to 22).
type Collapse struct {
	Week    int
	Survive float64
}

// AS describes one autonomous system.
type AS struct {
	ASN         uint32
	Name        string
	Country     string
	Kind        ASKind
	DynamicPool bool // dynamic consumer address pool (short DHCP leases)
	DensityMul  float64
	Collapse    *Collapse
	Fate        Fate
	FateWeek    int // week the fate takes effect

	// rir caches RIROf(Country) and ci Country's CountryIndex entry (-1
	// for none) at build time, so the per-probe lookup path never
	// touches the country-keyed string maps.
	rir RIR
	ci  int
}

// CountryIdx returns the position of the AS's country in Countries, -1
// for a code outside it.
func (a *AS) CountryIdx() int { return a.ci }

// Location is the result of an IP lookup.
type Location struct {
	Country string
	RIR     RIR
	AS      *AS
}

// DB is the immutable registry for one simulated world.
type DB struct {
	order     uint
	blockBits uint     // log2(block size in addresses)
	blocks    []uint16 // block index -> AS index
	ases      []AS
}

// Build constructs the registry for a 2^order address space. seed selects
// the world; identical (order, seed) pairs build identical registries.
func Build(order uint, seed uint64) (*DB, error) {
	if order < 10 || order > 32 {
		return nil, fmt.Errorf("geodb: order %d out of range [10, 32]", order)
	}
	nBlockBits := uint(12) // 4096 blocks
	if order < 16 {
		nBlockBits = order - 4
	}
	db := &DB{
		order:     order,
		blockBits: order - nBlockBits,
	}
	db.buildASes(seed)
	db.assignBlocks(seed, 1<<nBlockBits)
	for i := range db.ases {
		db.ases[i].rir = RIROf(db.ases[i].Country)
		db.ases[i].ci = -1
		if ci, ok := CountryIndex[db.ases[i].Country]; ok {
			db.ases[i].ci = ci
		}
	}
	return db, nil
}

// MustBuild is Build that panics on error, for statically valid orders.
func MustBuild(order uint, seed uint64) *DB {
	db, err := Build(order, seed)
	if err != nil {
		panic(err)
	}
	return db
}

// asTemplate describes the AS mix inside a country.
type asTemplate struct {
	suffix string
	kind   ASKind
	dyn    bool
	weight float64
}

var defaultASMix = []asTemplate{
	{"telecom", Broadband, true, 0.45},
	{"broadband", Broadband, true, 0.20},
	{"cable", Broadband, true, 0.12},
	{"hosting", Hosting, false, 0.10},
	{"univ", Academic, false, 0.03},
	{"corp", Enterprise, false, 0.10},
}

func (db *DB) buildASes(seed uint64) {
	for ci, c := range Countries {
		mix := defaultASMix
		for ai, tpl := range mix {
			as := AS{
				ASN:         uint32(1000 + ci*10 + ai),
				Name:        fmt.Sprintf("%s-%s", tpl.suffix, c.Code),
				Country:     c.Code,
				Kind:        tpl.kind,
				DynamicPool: tpl.dyn,
				DensityMul:  1.0,
			}
			// Plant the two narrated AS collapses inside the dominant
			// broadband provider of AR and KR.
			if ai == 0 {
				switch c.Code {
				case "AR":
					as.Collapse = &Collapse{Week: 30, Survive: 0.022}
				case "KR":
					as.Collapse = &Collapse{Week: 22, Survive: 0.0001}
				}
			}
			db.ases = append(db.ases, as)
		}
	}
	// The 28 fated networks: dense resolver pools (>1,000 resolvers at
	// paper scale) that disappear from the primary vantage.
	fates := make([]Fate, 0, 28)
	for i := 0; i < 21; i++ {
		fates = append(fates, FateBlocksScanner)
	}
	for i := 0; i < 5; i++ {
		fates = append(fates, FateFiltering)
	}
	fates = append(fates, FateShutdown, FateShutdown)
	hostCountries := []string{"US", "CN", "IN", "BR", "RU", "TR", "ID"}
	for i, fate := range fates {
		cc := hostCountries[prand.IntN(prand.Hash(seed, 0xFA7E, uint64(i)), len(hostCountries))]
		as := AS{
			ASN:         uint32(9000 + i),
			Name:        fmt.Sprintf("fated-%02d-%s", i, cc),
			Country:     cc,
			Kind:        Broadband,
			DynamicPool: false,
			DensityMul:  4.0, // dense pool so scaled-down worlds keep enough resolvers
			Fate:        fate,
			FateWeek:    10 + prand.IntN(prand.Hash(seed, 0xFEE7, uint64(i)), 30),
		}
		db.ases = append(db.ases, as)
	}
}

func (db *DB) assignBlocks(seed uint64, nBlocks int) {
	db.blocks = make([]uint16, nBlocks)
	// Country weights from week-0 population shares.
	weights := make([]float64, len(Countries))
	var total float64
	for _, c := range Countries {
		total += c.Week0
	}
	for i, c := range Countries {
		weights[i] = c.Week0 / total
	}
	// Reserve one block per fated AS, scattered deterministically.
	fatedBlocks := make(map[int]int) // block -> AS index
	for i := range db.ases {
		if db.ases[i].Fate == FateNone {
			continue
		}
		for try := uint64(0); ; try++ {
			b := prand.IntN(prand.Hash(seed, 0xB10C, uint64(db.ases[i].ASN), try), nBlocks)
			if _, taken := fatedBlocks[b]; !taken {
				fatedBlocks[b] = i
				break
			}
		}
	}
	for b := 0; b < nBlocks; b++ {
		if ai, ok := fatedBlocks[b]; ok {
			db.blocks[b] = uint16(ai)
			continue
		}
		cu := prand.UnitOf(seed, 0xC0DE, uint64(b))
		ci := prand.Pick(cu, weights)
		// AS inside the country, by the country's AS mix.
		mixWeights := make([]float64, len(defaultASMix))
		for i, tpl := range defaultASMix {
			mixWeights[i] = tpl.weight
		}
		// The AR and KR collapses dominate their country (77% and 50%
		// of the national population respectively).
		switch Countries[ci].Code {
		case "AR":
			mixWeights[0] = 0.77
		case "KR":
			mixWeights[0] = 0.50
		}
		au := prand.UnitOf(seed, 0xA5A5, uint64(b))
		ai := prand.Pick(au, mixWeights)
		db.blocks[b] = uint16(ci*len(defaultASMix) + ai)
	}
}

// Order returns the address-space width the registry was built for.
func (db *DB) Order() uint { return db.order }

// BlockOf returns the block index of an address.
func (db *DB) BlockOf(u uint32) int { return int(u >> db.blockBits) }

// LookupU32 resolves the location of an address given as uint32. Addresses
// outside the scaled space (order < 32) fold into it by masking, so
// callers never observe a miss.
func (db *DB) LookupU32(u uint32) Location {
	as := db.ASOfU32(u)
	return Location{Country: as.Country, RIR: as.rir, AS: as}
}

// ASOfU32 returns the owning AS of an address without building a
// Location — the form the per-probe hot paths use.
func (db *DB) ASOfU32(u uint32) *AS {
	if db.order < 32 {
		u &= uint32(1)<<db.order - 1
	}
	return &db.ases[db.blocks[db.BlockOf(u)]]
}

// NumBlocks returns how many network blocks the space is partitioned
// into.
func (db *DB) NumBlocks() int { return len(db.blocks) }

// BlockBase returns the first address of block b.
func (db *DB) BlockBase(b int) uint32 { return uint32(b) << db.blockBits }

// Lookup resolves the location of an address.
func (db *DB) Lookup(addr netip.Addr) Location {
	b := addr.As4()
	u := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	return db.LookupU32(u)
}

// ASes returns all registered autonomous systems.
func (db *DB) ASes() []AS { return db.ases }

// WorldDeclineAt returns the whole population's size at the given week
// relative to week 0 (the paper's responder total shrinks from ≈31.2M to
// ≈22.6M across the study).
func WorldDeclineAt(week int) float64 {
	f := float64(week) / 55.0
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	var w0, wf float64
	for _, c := range Countries {
		w0 += c.Week0
		wf += c.Week0 + (c.Week55-c.Week0)*f
	}
	return wf / w0
}

// CountryDeclineAt returns a country's population at the given week
// relative to its own week-0 population.
func CountryDeclineAt(code string, week int) float64 {
	i, ok := CountryIndex[code]
	if !ok {
		return 1
	}
	c := Countries[i]
	if c.Week0 <= 0 {
		return 0
	}
	f := float64(week) / 55.0
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return (c.Week0 + (c.Week55-c.Week0)*f) / c.Week0
}
