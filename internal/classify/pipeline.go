package classify

import (
	"sort"

	"goingwild/internal/cluster"
	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/fetch"
	"goingwild/internal/htmlx"
	"goingwild/internal/prefilter"
	"goingwild/internal/scanner"
)

const (
	// clusterCutoff is the dendrogram cut distance of step ❺'s
	// page clustering.
	clusterCutoff = 0.30
	// modCutoff is the cut distance of the fine-grained clustering of
	// tag-level modifications.
	modCutoff = 0.25
	// maxReps caps the items fed to either quadratic clustering: the
	// first maxReps structurally deduplicated representatives, and the
	// first maxReps modifications.
	maxReps = 800
)

// Pipeline wires the classification stages together.
type Pipeline struct {
	Client *fetch.Client
	// ResolverCountry locates a resolver (for Figure 4 and censorship
	// geography).
	ResolverCountry func(resolverIdx int) string
	// ResolverAddr maps a resolver index to its address.
	ResolverAddr func(resolverIdx int) uint32
	// NearResolver reports whether an answer address sits in the same
	// AS or /24 as the resolver (§4.2's no-payload breakdown).
	NearResolver func(ip uint32, resolverIdx int) bool
	// ProbeCountryInjection reproduces the paper's succeeding
	// experiment (§4.2): sending queries for a domain to randomly
	// chosen addresses of a country and checking whether forged
	// responses are injected in transit. Tuples whose answers point
	// nowhere are labeled Censorship when their country injects for
	// the domain. Optional.
	ProbeCountryInjection func(country, name string) bool
}

// pageKey identifies acquired content.
type pageKey struct {
	nameIdx int
	ip      uint32
}

// page is one acquired (domain, ip) content record.
type page struct {
	key       pageKey
	res       fetch.Result
	features  *htmlx.Features
	label     Label
	clusterID int
}

// GroundTruth holds the trusted representations used for comparison.
type GroundTruth struct {
	Bodies   map[string]string
	Features map[string]*htmlx.Features
	// MailBanners maps MX hostnames to their legitimate banner.
	MailBanners map[string]string
}

// BuildGroundTruth acquires the legitimate dataset through the trusted
// resolvers (§3.5's ground-truth aggregation).
func BuildGroundTruth(client *fetch.Client, trustedResolve func(string) ([]uint32, dnswire.RCode), names []string) *GroundTruth {
	gt := &GroundTruth{
		Bodies:      map[string]string{},
		Features:    map[string]*htmlx.Features{},
		MailBanners: map[string]string{},
	}
	for _, name := range names {
		cn := dnswire.CanonicalName(name)
		addrs, rc := trustedResolve(cn)
		if rc != dnswire.RCodeNoError || len(addrs) == 0 {
			continue
		}
		d, _ := domains.ByName(cn)
		if d.Category == domains.MX {
			if b, ok := client.MailBanner(addrs[0], mailProtoOf(cn)); ok {
				gt.MailBanners[cn] = b
			}
			continue
		}
		for _, a := range addrs {
			r := client.Fetch(cn, a, 0)
			if r.OK {
				gt.Bodies[cn] = r.Body
				gt.Features[cn] = htmlx.Extract(r.Body)
				break
			}
		}
	}
	return gt
}

func mailProtoOf(cn string) string {
	switch {
	case len(cn) >= 4 && cn[:4] == "imap":
		return "imap"
	case len(cn) >= 3 && cn[:3] == "pop":
		return "pop3"
	default:
		return "smtp"
	}
}

// Report is the complete classification outcome.
type Report struct {
	// PairCount is the number of distinct (domain, ip) pairs fetched.
	PairCount int
	// FetchedShare is the share of unexpected tuples with HTTP payload
	// (the paper's 88.9%).
	FetchedShare float64
	// NoPayloadLANShare / NoPayloadNearShare break down the payloadless
	// remainder (§4.2: up to 65.1% LAN, 32.2% same AS or /24).
	NoPayloadLANShare  float64
	NoPayloadNearShare float64
	// Clusters is the coarse-grained cluster count.
	Clusters int
	// Dedup is the structural-deduplication factor: pairs per
	// clustered representative.
	Dedup float64
	// ModClusters is the number of fine-grained modification clusters
	// (§3.6 second stage): groups of pages that differ from their
	// ground-truth representation by similar tag-level edits.
	ModClusters int
	// SmallModifications counts pages within a few tag edits of their
	// ground truth — the injected-modification suspects the fine
	// stage exists to surface.
	SmallModifications int
	// ModClusterSizes lists the fine-grained cluster sizes, largest
	// first.
	ModClusterSizes []int
	// Table5 is the label×category matrix.
	Table5 *Table5
	// TupleLabels[nameIdx][resolverIdx] is each suspicious tuple's
	// label (only set where the prefilter said unexpected).
	TupleLabels map[int]map[int]Label
	// Cases aggregates the §4.3 case studies.
	Cases CaseStudies
}

// Run executes acquisition, clustering, labeling, and aggregation.
func (p *Pipeline) Run(scan *scanner.DomainScanResult, pre *prefilter.Result, gt *GroundTruth) *Report {
	// --- Step ❹ bookkeeping: one fetch per (domain, ip) pair. -------
	pages := map[pageKey]*page{}
	tupleIP := map[int]map[int]uint32{} // nameIdx -> resolverIdx -> representative answer IP
	for _, t := range pre.Unexpected {
		if tupleIP[t.NameIdx] == nil {
			tupleIP[t.NameIdx] = map[int]uint32{}
		}
		if _, seen := tupleIP[t.NameIdx][t.ResolverIdx]; !seen {
			tupleIP[t.NameIdx][t.ResolverIdx] = t.IP
		}
		k := pageKey{t.NameIdx, t.IP}
		if _, seen := pages[k]; seen {
			continue
		}
		r := p.Client.Fetch(scan.Names[t.NameIdx], t.IP, p.ResolverAddr(t.ResolverIdx))
		pg := &page{key: k, res: r}
		if r.OK {
			pg.features = htmlx.Extract(r.Body)
		}
		pages[k] = pg
	}

	// --- Step ❺: structural dedup, then hierarchical clustering. ----
	var fetched []*page
	for _, pg := range pages {
		if pg.res.OK {
			fetched = append(fetched, pg)
		}
	}
	sort.Slice(fetched, func(i, j int) bool {
		if fetched[i].key.nameIdx != fetched[j].key.nameIdx {
			return fetched[i].key.nameIdx < fetched[j].key.nameIdx
		}
		return fetched[i].key.ip < fetched[j].key.ip
	})
	reps, repOf := dedupe(fetched)
	if len(reps) > maxReps {
		reps = reps[:maxReps]
	}
	clustering := cluster.Agglomerate(len(reps), func(i, j int) float64 {
		return cluster.FeatureDistance(reps[i].features, reps[j].features)
	}, clusterCutoff)

	// --- Step ❻: label each cluster by its representative pages. ----
	clusterLabel := make([]Label, clustering.Num)
	for c, members := range clustering.Members() {
		votes := map[Label]int{}
		for _, m := range members {
			votes[LabelPage(reps[m].res.Status, reps[m].res.Body, reps[m].features)]++
		}
		// Break vote ties by label value, not map order.
		labels := make([]Label, 0, len(votes))
		for l := range votes {
			labels = append(labels, l)
		}
		sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
		best, bestN := LMisc, -1
		for _, l := range labels {
			if n := votes[l]; n > bestN {
				best, bestN = l, n
			}
		}
		clusterLabel[c] = best
	}
	for _, pg := range fetched {
		ri, ok := repOf[pg]
		if !ok || ri >= len(reps) {
			// Sampled-out representative: label directly.
			pg.label = LabelPage(pg.res.Status, pg.res.Body, pg.features)
			continue
		}
		pg.clusterID = clustering.Assign[ri]
		pg.label = clusterLabel[clustering.Assign[ri]]
	}

	// --- Aggregate. ---------------------------------------------------
	rep := &Report{
		PairCount:   len(pages),
		Clusters:    clustering.Num,
		Table5:      NewTable5(),
		TupleLabels: map[int]map[int]Label{},
	}
	if len(reps) > 0 {
		rep.Dedup = float64(len(fetched)) / float64(len(reps))
	}
	var withPayload, lan, total int
	for _, pg := range pages {
		total++
		if pg.res.OK {
			withPayload++
			continue
		}
		if pg.res.NoPayload == "lan" {
			lan++
		}
	}
	// Near-resolver breakdown needs tuples, not pairs.
	var noPayloadTuples, nearTuples int
	for ni, byRes := range tupleIP {
		for ri, ip := range byRes {
			pg := pages[pageKey{ni, ip}]
			if pg.res.OK {
				continue
			}
			noPayloadTuples++
			if pg.res.NoPayload != "lan" && p.NearResolver != nil && p.NearResolver(ip, ri) {
				nearTuples++
			}
		}
	}
	if total > 0 {
		rep.FetchedShare = float64(withPayload) / float64(total)
		if total-withPayload > 0 {
			rep.NoPayloadLANShare = float64(lan) / float64(total-withPayload)
		}
	}
	if noPayloadTuples > 0 {
		rep.NoPayloadNearShare = float64(nearTuples) / float64(noPayloadTuples)
	}

	// Label every suspicious tuple and fill Table 5. Payloadless tuples
	// can still be classified as censorship through response behavior:
	// a second (injected) response racing the first, or a positive
	// country-injection probe.
	injectionCache := map[string]bool{}
	injects := func(country, name string) bool {
		if p.ProbeCountryInjection == nil {
			return false
		}
		key := country + "|" + name
		if v, ok := injectionCache[key]; ok {
			return v
		}
		v := p.ProbeCountryInjection(country, name)
		injectionCache[key] = v
		return v
	}
	// Iterate tuples in sorted order, not map order: the labels are
	// order-insensitive, but injects() fires country-injection probes,
	// and under a fault profile every probe advances the transport's
	// retransmission counter — so the probe *sequence* must be the same
	// every run for the draws to be.
	nameIdxs := make([]int, 0, len(tupleIP))
	for ni := range tupleIP {
		nameIdxs = append(nameIdxs, ni)
	}
	sort.Ints(nameIdxs)
	for _, ni := range nameIdxs {
		byRes := tupleIP[ni]
		name := dnswire.CanonicalName(scan.Names[ni])
		d, _ := domains.ByName(name)
		labeled := map[Label]int{}
		classified := 0
		rep.TupleLabels[ni] = map[int]Label{}
		resIdxs := make([]int, 0, len(byRes))
		for ri := range byRes {
			resIdxs = append(resIdxs, ri)
		}
		sort.Ints(resIdxs)
		for _, ri := range resIdxs {
			ip := byRes[ri]
			pg := pages[pageKey{ni, ip}]
			label := LNoPayload
			switch {
			case scan.Answers[ni][ri].Responses > 1:
				// An injected answer raced the legitimate one.
				label = LCensorship
				classified++
			case pg.res.OK:
				label = pg.label
				classified++
			case injects(p.ResolverCountry(ri), name):
				label = LCensorship
				classified++
			}
			rep.TupleLabels[ni][ri] = label
			labeled[label]++
		}
		if classified > 0 {
			rep.Table5.AddDomain(d.Category, name, labeled, classified)
		}
	}
	rep.Table5.Finalize()

	// Fine-grained stage (§3.6): diff each fetched page against the
	// most similar ground-truth representation and cluster the
	// modifications — small diffs with injected tags are how phishing
	// and ad injection surface.
	runFineGrained(rep, scan, fetched, gt)

	// Case studies.
	rep.Cases = p.runCaseStudies(scan, pre, gt, pages, tupleIP)
	return rep
}

// runFineGrained computes tag-level modifications of unexpected pages
// relative to ground truth and clusters them.
func runFineGrained(rep *Report, scan *scanner.DomainScanResult, fetched []*page, gt *GroundTruth) {
	var mods []cluster.Modification
	for _, pg := range fetched {
		name := dnswire.CanonicalName(scan.Names[pg.key.nameIdx])
		gtf, ok := gt.Features[name]
		if !ok || pg.res.Body == gt.Bodies[name] {
			continue
		}
		added, removed := cluster.TagDiff(pg.features.TagSeq, gtf.TagSeq)
		m := cluster.Modification{Added: added, Removed: removed}
		if m.Size() == 0 {
			continue
		}
		if m.Size() <= 6 {
			rep.SmallModifications++
		}
		mods = append(mods, m)
		if len(mods) >= maxReps {
			break
		}
	}
	if len(mods) == 0 {
		return
	}
	res := cluster.ClusterModifications(mods, modCutoff)
	rep.ModClusters = res.Num
	sizes := make([]int, res.Num)
	for _, c := range res.Assign {
		sizes[c]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	rep.ModClusterSizes = sizes
}

// dedupe groups pages with identical structural signatures; the first of
// each group represents the rest in the quadratic clustering, shrinking
// the scale the way the paper's coarse clustering is meant to (§3.6).
func dedupe(fetched []*page) ([]*page, map[*page]int) {
	sigOf := func(pg *page) string {
		var sb []byte
		for _, t := range pg.features.TagSeq {
			sb = append(sb, t...)
			sb = append(sb, '|')
		}
		sb = append(sb, byte(pg.res.Status>>8), byte(pg.res.Status))
		return string(sb)
	}
	repIdx := map[string]int{}
	var reps []*page
	repOf := map[*page]int{}
	for _, pg := range fetched {
		sig := sigOf(pg)
		if i, ok := repIdx[sig]; ok {
			repOf[pg] = i
			continue
		}
		repIdx[sig] = len(reps)
		repOf[pg] = len(reps)
		reps = append(reps, pg)
	}
	return reps, repOf
}
