package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"time"

	"goingwild/internal/churn"
	"goingwild/internal/cluster"
	"goingwild/internal/core"
	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/geodb"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/pipeline"
	"goingwild/internal/resolvesvc"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// The layer table measures every layer from outside: it times calls
// into the packages' exported functions and reads what the programs
// already print, and adds no instrumentation to any package. Each
// measurement is a span; the numbers are span durations over counts.

const (
	// probeBatch is the scanner's dispatch batch size, which the replay
	// passes reuse so SendBatch amortizes exactly as it does in a sweep.
	probeBatch = 256
	// scanSrcPort is the scanner's default first source port.
	scanSrcPort = 33000
	// layerWeek is the study week the census layers are measured at: one
	// of censusWeekSet whose sweep costs about what the set averages.
	layerWeek = 10
	// layerReps is how often the timed sweeps and scans of the layer
	// table repeat; their median is reported.
	layerReps = 3
)

// sink keeps the decode loops' results alive so the compiler cannot
// discard the calls being timed.
var sink uint64

// layerTable accumulates the per-layer values and the gate of one traced
// pass.
type layerTable struct {
	tr     *tracer
	values map[string]float64
	gate   *result
}

// timed runs f inside a span and returns how long it took.
func (lt *layerTable) timed(name string, parent int, workload string, op int64, f func()) time.Duration {
	sp := lt.tr.begin(name, parent, workload, op)
	start := time.Now()
	f()
	d := time.Since(start)
	lt.tr.end(sp)
	return d
}

// censusPrefix is the census probe's anti-caching label (scanner's
// cachePrefix): replayed packets must be byte-identical to a sweep's so
// the world draws the same loss fate for them.
func censusPrefix(u uint32) [5]byte {
	const hexdigits = "0123456789abcdef"
	v := uint16((uint64(u) * 2654435761) >> 8)
	return [5]byte{'r', hexdigits[v>>12], hexdigits[v>>8&0xF], hexdigits[v>>4&0xF], hexdigits[v&0xF]}
}

// scanBaseWire is the wire form of the domain census qnames end in.
func scanBaseWire() ([]byte, error) {
	return dnswire.EncodeNameWire(dnswire.CanonicalName(domains.ScanBase))
}

// appendCensusQuery appends target u's census probe to arena.
func appendCensusQuery(arena []byte, u uint32, baseWire []byte) []byte {
	p := censusPrefix(u)
	return dnswire.AppendTargetQuery(arena, uint16(u)^uint16(u>>16), p[:], u, baseWire, dnswire.TypeA, dnswire.ClassIN)
}

// censusArena assembles the census probes for targets into arena and
// probes, the way the scanner's batch worker does.
func censusArena(targets []uint32, baseWire, arena []byte, probes []wildnet.Probe) ([]byte, []wildnet.Probe) {
	arena, probes = arena[:0], probes[:0]
	for _, u := range targets {
		off := len(arena)
		arena = appendCensusQuery(arena, u, baseWire)
		probes = append(probes, wildnet.Probe{Dst: lfsr.U32ToAddr(u), DstPort: 53, SrcPort: scanSrcPort})
		probes[len(probes)-1].Payload = arena[off:len(arena):len(arena)]
	}
	return arena, probes
}

// replaySendBatch hands targets' census probes to the transport batch by
// batch and returns the time spent inside SendBatch alone (assembly is
// not timed). Each batch is one span.
func (lt *layerTable) replaySendBatch(ctx context.Context, tr *wildnet.MemTransport, targets []uint32, baseWire []byte,
	span string, parent int, workload string) time.Duration {
	arena := make([]byte, 0, probeBatch*64)
	probes := make([]wildnet.Probe, 0, probeBatch)
	var total time.Duration
	for off := 0; off < len(targets); off += probeBatch {
		// Payloads alias the arena, so it must not grow once sliced:
		// 64 bytes per probe is above the census query's fixed size.
		arena, probes = censusArena(targets[off:min(off+probeBatch, len(targets))], baseWire, arena, probes)
		t0 := time.Now()
		tr.SendBatch(ctx, probes)
		t1 := time.Now()
		total += t1.Sub(t0)
		lt.tr.add(span, parent, workload, int64(off/probeBatch), t0, t1)
	}
	return total
}

// sweepMedian runs the study's sweep of one week layerReps times and
// returns the median duration and the last result.
func (lt *layerTable) sweepMedian(ctx context.Context, s *core.Study, week int, span string, parent int, workload string) (time.Duration, *scanner.SweepResult, error) {
	var (
		durs []time.Duration
		res  *scanner.SweepResult
	)
	for i := 0; i < layerReps; i++ {
		var err error
		durs = append(durs, lt.timed(span, parent, workload, int64(i), func() {
			res, err = s.SweepAtContext(ctx, week)
		}))
		if err != nil {
			return 0, nil, err
		}
	}
	return medianDuration(durs), res, nil
}

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// targetsOf walks the whole permutation of the study's space, batch by
// batch as a sweep does, and returns the targets and the time it took.
func (lt *layerTable) targetsOf(s *core.Study, parent int, workload string) ([]uint32, time.Duration, error) {
	gen, err := lfsr.NewTargetGenerator(s.Cfg.Order, s.Cfg.ScanSeed, s.World.ScanBlacklist())
	if err != nil {
		return nil, 0, err
	}
	targets := make([]uint32, 0, 1<<s.Cfg.Order)
	var batch [probeBatch]uint32
	d := lt.timed("lfsr.NextBatch", parent, workload, 0, func() {
		for {
			n := gen.NextBatch(batch[:])
			if n == 0 {
				return
			}
			targets = append(targets, batch[:n]...)
		}
	})
	return targets, d, nil
}

// cleanCensusLayers decomposes census-clean: the layers of a sweep are
// replayed serially over the identical target set as sibling spans and
// reconciled against a Workers=1 sweep, whose pipeline is serial so the
// layers add. What the replays do not cover — collector insert, batch
// hand-off, collect and sort, allocation — is the reported residual.
func (lt *layerTable) cleanCensusLayers(ctx context.Context, rc runConfig) error {
	const wl = "census-clean"
	v := lt.values
	root := lt.tr.begin("layers.census-clean", -1, wl, 0)
	defer lt.tr.end(root)
	week := layerWeek

	reg := metrics.New()
	cfg, err := censusConfig(rc.Size, rc.Seed, false, reg)
	if err != nil {
		return err
	}
	var builds []time.Duration
	for i := 0; i < 5; i++ {
		var s *core.Study
		builds = append(builds, lt.timed("core.NewStudy", root, wl, int64(i), func() { s, err = core.NewStudy(cfg) }))
		if err != nil {
			return err
		}
		s.Close()
	}
	v["wildnet.world_build_s"] = medianDuration(builds).Seconds()

	serialCfg := cfg
	serialCfg.Workers = 1
	serial, err := core.NewStudy(serialCfg)
	if err != nil {
		return err
	}
	defer serial.Close()
	parallel, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	defer parallel.Close()

	// The real thing first, serial then at default workers.
	w1, res, err := lt.sweepMedian(ctx, serial, week, "scanner.sweep_w1", root, wl)
	if err != nil {
		return err
	}
	wn, _, err := lt.sweepMedian(ctx, parallel, week, "scanner.sweep_default_workers", root, wl)
	if err != nil {
		return err
	}
	probed := int(res.Probed)
	v["scanner.sweep_w1_ns_per_probe"] = perOp(w1, probed)
	v["scanner.workers_speedup"] = float64(w1) / float64(wn)
	v["scanner.response_share"] = float64(res.Total()) / float64(probed)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := serial.SweepAtContext(ctx, week); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	v["scanner.allocs_per_probe"] = float64(after.Mallocs-before.Mallocs) / float64(probed)
	v["scanner.bytes_per_probe"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(probed)

	// The replay: target generation, query assembly, the transport.
	targets, lfsrTime, err := lt.targetsOf(serial, root, wl)
	if err != nil {
		return err
	}
	if len(targets) != probed {
		lt.gate.fail("replay walked %d targets, the sweep probed %d", len(targets), probed)
	}
	baseWire, err := scanBaseWire()
	if err != nil {
		return err
	}
	appendTime := lt.timed("dnswire.AppendTargetQuery", root, wl, 0, func() {
		arena := make([]byte, 0, probeBatch*64)
		for off := 0; off < len(targets); off += probeBatch {
			arena = arena[:0]
			for _, u := range targets[off:min(off+probeBatch, len(targets))] {
				arena = appendCensusQuery(arena, u, baseWire)
			}
		}
		sink += uint64(len(arena))
	})
	serial.SetWeek(week)
	var captured [][]byte
	serial.Transport.SetReceiver(func(_ netip.Addr, _, _ uint16, payload []byte) {
		captured = append(captured, append([]byte(nil), payload...))
	})
	lt.replaySendBatch(ctx, serial.Transport, targets, baseWire, "wildnet.SendBatch.capture", root, wl)
	serial.Transport.SetReceiver(func(netip.Addr, uint16, uint16, []byte) {})
	sendTime := lt.replaySendBatch(ctx, serial.Transport, targets, baseWire, "wildnet.SendBatch", root, wl)
	// The replay reproduces the sweep when it draws (nearly) the same
	// answers; a loose bound, so a change to the probe's anti-caching
	// label shifts a few loss draws without failing the benchmark.
	if diff := math.Abs(float64(len(captured) - res.Total())); len(captured) == 0 || diff > 0.02*float64(res.Total()) {
		lt.gate.fail("replay captured %d responses, the sweep saw %d responders", len(captured), res.Total())
		return nil
	}

	base := dnswire.CanonicalName(domains.ScanBase)
	view := dnswire.GetView()
	defer dnswire.PutView(view)
	viewReps := 200000/len(captured) + 1
	viewTime := lt.timed("dnswire.View", root, wl, 0, func() {
		for r := 0; r < viewReps; r++ {
			for _, p := range captured {
				if view.Reset(p) != nil {
					continue
				}
				target, _ := dnswire.DecodeTargetQNameU32(view.QName(), base)
				sink += uint64(target) + uint64(view.RCode())
				if view.HasAnswerA() {
					sink++
				}
			}
		}
	})
	unpackReps := 50000/len(captured) + 1
	unpackTime := lt.timed("dnswire.Unpack", root, wl, 0, func() {
		for r := 0; r < unpackReps; r++ {
			for _, p := range captured {
				if m, err := dnswire.Unpack(p); err == nil {
					sink += uint64(len(m.Answers))
				}
			}
		}
	})

	v["lfsr.next_batch_ns_per_probe"] = perOp(lfsrTime, probed)
	v["dnswire.append_query_ns_per_probe"] = perOp(appendTime, probed)
	v["wildnet.send_batch_ns_per_probe"] = perOp(sendTime, probed)
	v["dnswire.view_decode_ns_per_response"] = perOp(viewTime, viewReps*len(captured))
	v["dnswire.unpack_ns_per_response"] = perOp(unpackTime, unpackReps*len(captured))
	v["scanner.sweep_unattributed_ns_per_probe"] = v["scanner.sweep_w1_ns_per_probe"] -
		(v["lfsr.next_batch_ns_per_probe"] + v["dnswire.append_query_ns_per_probe"] + v["wildnet.send_batch_ns_per_probe"] +
			v["scanner.response_share"]*v["dnswire.view_decode_ns_per_response"])
	return nil
}

// hostileCensusLayers explains census-hostile: how many packets a
// covered target costs, what the fault layer does to them, and what the
// retry machinery costs beyond building and sending those packets.
func (lt *layerTable) hostileCensusLayers(ctx context.Context, rc runConfig) error {
	const wl = "census-hostile"
	v := lt.values
	root := lt.tr.begin("layers.census-hostile", -1, wl, 0)
	defer lt.tr.end(root)
	week := layerWeek

	reg := metrics.New()
	cfg, err := censusConfig(rc.Size, rc.Seed, true, reg)
	if err != nil {
		return err
	}
	cfg.Workers = 1
	s, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	c0 := reg.Snapshot()
	w1, res, err := lt.sweepMedian(ctx, s, week, "scanner.sweep_w1", root, wl)
	if err != nil {
		return err
	}
	c1 := reg.Snapshot()
	delta := func(name string) float64 { return float64(c1.Counter(name) - c0.Counter(name)) }
	sent := delta("scanner.sweep.sent")
	covered := float64(res.Probed) * layerReps
	v["scanner.sends_per_target"] = sent / covered
	v["scanner.retry_rounds"] = delta("scanner.retry.rounds") / layerReps
	v["wildnet.fault_drop_share"] = ratio(delta("wildnet.fault.drop.query")+delta("wildnet.fault.drop.response")+delta("wildnet.fault.drop.burst"), sent)
	v["wildnet.fault_garbled_share"] = ratio(delta("wildnet.fault.garbled"), sent)

	targets, _, err := lt.targetsOf(s, root, wl)
	if err != nil {
		return err
	}
	baseWire, err := scanBaseWire()
	if err != nil {
		return err
	}
	s.SetWeek(week)
	s.Transport.SetReceiver(func(netip.Addr, uint16, uint16, []byte) {})
	sendTime := lt.replaySendBatch(ctx, s.Transport, targets, baseWire, "wildnet.SendBatch", root, wl)
	v["wildnet.send_batch_faulty_ns_per_probe"] = perOp(sendTime, len(targets))
	v["scanner.retry_overhead_ns_per_target"] = perOp(w1, int(res.Probed)) -
		v["scanner.sends_per_target"]*(v["dnswire.append_query_ns_per_probe"]+v["wildnet.send_batch_faulty_ns_per_probe"])
	return nil
}

// domainScanLayers decomposes domain-scan the way cleanCensusLayers
// decomposes the census: a Workers=1 scan against a replay of its probes
// through SendBatch, where every probe is answered.
func (lt *layerTable) domainScanLayers(ctx context.Context, rc runConfig) error {
	const wl = "domain-scan"
	v := lt.values
	root := lt.tr.begin("layers.domain-scan", -1, wl, 0)
	defer lt.tr.end(root)

	cfg := core.DefaultConfig(rc.Size.DomainOrder)
	cfg.Seed = rc.Seed
	cfg.Workers = 1
	s, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	census, err := s.SweepAtContext(ctx, domainScanWeek)
	if err != nil {
		return err
	}
	resolvers, names := census.NOERROR(), domains.Names()
	tuples := len(resolvers) * len(names)
	if tuples == 0 {
		lt.gate.fail("domain-scan layers: no resolvers at week %d", domainScanWeek)
		return nil
	}

	var (
		durs     []time.Duration
		answered int
	)
	for i := 0; i < 2; i++ {
		var res *scanner.DomainScanResult
		durs = append(durs, lt.timed("scanner.domain_w1", root, wl, int64(i), func() {
			res, err = s.Scanner.ScanDomainsContext(ctx, resolvers, names)
		}))
		if err != nil {
			return err
		}
		answered = 0
		for _, row := range res.Answers {
			for k := range row {
				if row[k].Answered() {
					answered++
				}
			}
		}
	}
	v["scanner.domain_w1_ns_per_tuple"] = perOp(medianDuration(durs), tuples)
	v["scanner.tuple_answer_share"] = float64(answered) / float64(tuples)

	// The replay: the scan's own probes (25-bit identifier in txid, port
	// and 0x20 casing), assembled untimed and sent in batches.
	responses := 0
	s.Transport.SetReceiver(func(netip.Addr, uint16, uint16, []byte) { responses++ })
	probes := make([]wildnet.Probe, 0, probeBatch)
	var sendTime time.Duration
	batchNo := int64(0)
	for _, name := range names {
		for off := 0; off < len(resolvers); off += probeBatch {
			probes = probes[:0]
			for ri := off; ri < min(off+probeBatch, len(resolvers)); ri++ {
				txid, portIdx := dnswire.SplitProbeID(dnswire.ProbeID(ri))
				qname, _ := dnswire.Encode0x20(name, uint32(portIdx), 9)
				wire, err := dnswire.NewQuery(txid, qname, dnswire.TypeA, dnswire.ClassIN).PackBytes()
				if err != nil {
					return err
				}
				probes = append(probes, wildnet.Probe{Dst: lfsr.U32ToAddr(resolvers[ri]), DstPort: 53, SrcPort: scanSrcPort + portIdx, Payload: wire})
			}
			t0 := time.Now()
			s.Transport.SendBatch(ctx, probes)
			t1 := time.Now()
			sendTime += t1.Sub(t0)
			lt.tr.add("wildnet.SendBatch", root, wl, batchNo, t0, t1)
			batchNo++
		}
	}
	if responses == 0 {
		lt.gate.fail("domain-scan replay: no probe of %d was answered", tuples)
	}
	v["wildnet.send_batch_dense_ns_per_probe"] = perOp(sendTime, tuples)
	v["scanner.domain_unattributed_ns_per_tuple"] = v["scanner.domain_w1_ns_per_tuple"] -
		(v["wildnet.send_batch_dense_ns_per_probe"] + v["scanner.tuple_answer_share"]*v["dnswire.view_decode_ns_per_response"])
	return nil
}

// epochLayers drives the service's epoch loop by hand with no readers —
// sweep, diff, tracker apply, store apply, one parent span per epoch —
// and then measures the read side on the store it filled: Store.Get,
// Service.Lookup, the /resolver handler without a socket, and one demand
// probe on an idle second transport.
func (lt *layerTable) epochLayers(ctx context.Context, rc runConfig) error {
	const wl = "serve-churn"
	v := lt.values
	root := lt.tr.begin("layers.epoch", -1, wl, 0)
	defer lt.tr.end(root)

	cfg := core.DefaultConfig(rc.Size.ChurnOrder)
	cfg.Seed = rc.Seed
	s, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	locate := func(u uint32) (string, geodb.RIR) {
		loc := s.World.Geo().LookupU32(u)
		return loc.Country, loc.RIR
	}
	// As in cmd/wildsvc, the demand prober rides its own transport.
	proberTr := wildnet.NewMemTransport(s.World, wildnet.VantagePrimary)
	defer proberTr.Close()
	prober := scanner.New(proberTr, scanner.Options{Workers: 2, SettleDelay: scanner.NoSettle})
	svc := resolvesvc.New(resolvesvc.Config{
		Order:     cfg.Order,
		ScanSeed:  cfg.ScanSeed,
		Blacklist: s.World.ScanBlacklist(),
	}, resolvesvc.Deps{
		Scanner: s.Scanner, SweepClock: s.Transport,
		Prober: prober, ProbeClock: proberTr,
		Locator: locate,
	})
	store := svc.Store()
	tracker := churn.NewTracker(locate, nil)

	epochs := rc.Size.ChurnWaitEpoch + 1
	var (
		prev, snapshot             []scanner.Responder
		applyTime                  time.Duration
		responders, deltaCount     int
		sweepT, diffT, trackT, stT time.Duration
		epochT                     time.Duration
	)
	for epoch := 0; epoch < epochs; epoch++ {
		var (
			res    *scanner.SweepResult
			deltas []scanner.ResponderDelta
			stErr  error
		)
		op := int64(epoch)
		e := lt.tr.begin("epoch", root, wl, op)
		start := time.Now()
		sweepT += lt.timed("core.SweepAtContext", e, wl, op, func() { res, err = s.SweepAtContext(ctx, epoch) })
		if err != nil {
			return err
		}
		diffT += lt.timed("scanner.DiffSweepResponders", e, wl, op, func() { deltas = scanner.DiffSweepResponders(prev, res.Responders) })
		trackT += lt.timed("churn.Tracker.Apply", e, wl, op, func() {
			_, err = tracker.Apply(churn.EpochDelta{Week: epoch, Probed: res.Probed, Deltas: deltas})
		})
		stT += lt.timed("resolvesvc.Store.ApplyEpoch", e, wl, op, func() { stErr = store.ApplyEpoch(epoch, deltas, locate) })
		epochT += time.Since(start)
		lt.tr.end(e)
		if err != nil {
			return err
		}
		if stErr != nil {
			return stErr
		}
		// Replaying the delta onto a snapshot is the consumer-side cost
		// of the delta contract; the tracker does it inside Apply, so it
		// is timed on its own, outside the epoch span.
		applyTime += lt.timed("scanner.ApplyResponderDeltas", root, wl, op, func() { snapshot, err = scanner.ApplyResponderDeltas(snapshot, deltas) })
		if err != nil {
			return err
		}
		if len(snapshot) != len(res.Responders) {
			lt.gate.fail("epoch %d: replayed snapshot holds %d responders, the sweep %d", epoch, len(snapshot), len(res.Responders))
		}
		prev = res.Responders
		responders += len(res.Responders)
		deltaCount += len(deltas)
	}
	v["epoch.sweep_share"] = float64(sweepT) / float64(epochT)
	v["epoch.diff_share"] = float64(diffT) / float64(epochT)
	v["epoch.apply_share"] = float64(trackT+stT) / float64(epochT)
	v["epoch.idle_epochs_per_s"] = float64(epochs) / epochT.Seconds()
	v["scanner.diff_ns_per_responder"] = perOp(diffT, responders)
	v["scanner.apply_deltas_ns_per_delta"] = perOp(applyTime, deltaCount)
	v["churn.tracker_apply_ns_per_delta"] = perOp(trackT, deltaCount)
	v["resolvesvc.store_apply_ns_per_delta"] = perOp(stT, deltaCount)

	q := pipeline.NewQueue[churn.EpochDelta](2)
	const roundtrips = 200000
	qTime := lt.timed("pipeline.Queue", root, wl, 0, func() {
		for i := 0; i < roundtrips; i++ {
			if q.Put(ctx, churn.EpochDelta{Week: i}) != nil {
				return
			}
			d, _, _ := q.Get(ctx)
			sink += uint64(d.Week)
		}
	})
	v["pipeline.queue_roundtrip_ns"] = perOp(qTime, roundtrips)

	// The read side, on records the store vouches for (fresh), so Lookup
	// stays on the hit path exactly as it does on serve-hit.
	var fresh []uint32
	for _, r := range store.List(false, 0) {
		if store.Fresh(r, store.Epoch()) {
			fresh = append(fresh, r.Addr)
		}
	}
	if len(fresh) == 0 {
		lt.gate.fail("epoch layers: the store holds no fresh record")
		return nil
	}
	const gets, lookups, handled = 1000000, 500000, 20000
	getTime := lt.timed("resolvesvc.Store.Get", root, "serve-hit", 0, func() {
		for i := 0; i < gets; i++ {
			r, _ := store.Get(fresh[i%len(fresh)])
			sink += uint64(r.Addr)
		}
	})
	v["resolvesvc.store_get_ns"] = perOp(getTime, gets)
	lookupTime := lt.timed("resolvesvc.Service.Lookup", root, "serve-hit", 0, func() {
		for i := 0; i < lookups; i++ {
			res, err := svc.Lookup(ctx, fresh[i%len(fresh)])
			if err != nil || res.Source != "store" {
				lt.gate.fail("in-process lookup %08x: source %q, err %v", fresh[i%len(fresh)], res.Source, err)
				return
			}
		}
	})
	v["resolvesvc.lookup_hit_ns"] = perOp(lookupTime, lookups)

	var handler http.Handler
	for _, route := range svc.APIRoutes() {
		if route.Pattern == "/resolver" {
			handler = route.Handler
		}
	}
	if handler == nil {
		lt.gate.fail("APIRoutes has no /resolver route")
		return nil
	}
	reqs := make([]*http.Request, min(len(fresh), 1024))
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/resolver?ip="+lfsr.U32ToAddr(fresh[i]).String(), nil)
	}
	var before, after runtime.MemStats
	var bodyBytes int
	runtime.ReadMemStats(&before)
	handlerTime := lt.timed("resolvesvc.handler", root, "serve-hit", 0, func() {
		for i := 0; i < handled; i++ {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, reqs[i%len(reqs)])
			bodyBytes += rec.Body.Len()
		}
	})
	runtime.ReadMemStats(&after)
	v["resolvesvc.handler_ns"] = perOp(handlerTime, handled)
	v["resolvesvc.handler_allocs"] = float64(after.Mallocs-before.Mallocs) / handled
	v["resolvesvc.response_bytes"] = float64(bodyBytes) / handled

	// One request's layers under one op_id: handler, then Lookup, then
	// Store.Get for the same address, as children of a replay span.
	for i := 0; i < min(len(reqs), 256); i++ {
		op := int64(i)
		rp := lt.tr.begin("replay GET /resolver", root, "serve-hit", op)
		lt.timed("resolvesvc.handler", rp, "serve-hit", op, func() { handler.ServeHTTP(httptest.NewRecorder(), reqs[i]) })
		lt.timed("resolvesvc.Service.Lookup", rp, "serve-hit", op, func() { svc.Lookup(ctx, fresh[i]) })
		lt.timed("resolvesvc.Store.Get", rp, "serve-hit", op, func() { store.Get(fresh[i]) })
		lt.tr.end(rp)
	}

	// The demand-probe call, on the idle prober: half the addresses
	// answer, half are silent, like serve-churn's misses.
	proberTr.SetTime(wildnet.At(epochs - 1))
	space := uint32(1)<<cfg.Order - 1
	g := newLCG(rc.Seed, 99)
	var probeDurs []float64
	for i := 0; i < 200; i++ {
		addr := fresh[i%len(fresh)]
		if i%2 == 1 {
			addr = 1 + g.next()%space
		}
		name := dnswire.EncodeTargetQName(fmt.Sprintf("q%x", addr&0xFFFF), lfsr.U32ToAddr(addr), domains.ScanBase)
		d := lt.timed("scanner.ProbeContext", root, wl, int64(i), func() {
			prober.ProbeContext(ctx, addr, name, dnswire.TypeA, dnswire.ClassIN)
		})
		probeDurs = append(probeDurs, float64(d.Nanoseconds()))
	}
	v["scanner.probe_ns"] = median(probeDurs)
	return nil
}

// synthDist is cmd/benchscan's deterministic hash-flavoured distance in
// (0, 1], so the clustering numbers stay comparable with BENCH_scan.json.
func synthDist(i, j int) float64 {
	h := uint64(i*2654435761) ^ uint64(j)*0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return float64(h%1000000+1) / 1000000
}

// clusterLayers times cluster.Agglomerate at n and n/2.
func (lt *layerTable) clusterLayers(rc runConfig) {
	const wl = "study-report"
	root := lt.tr.begin("layers.cluster", -1, wl, 0)
	defer lt.tr.end(root)
	at := func(n int) float64 {
		var durs []float64
		for i := 0; i < 5; i++ {
			d := lt.timed("cluster.Agglomerate", root, wl, int64(n), func() {
				sink += uint64(len(cluster.Agglomerate(n, synthDist, 0.6).Merges))
			})
			durs = append(durs, float64(d.Nanoseconds()))
		}
		return median(durs)
	}
	half, full := at(rc.Size.ClusterN/2), at(rc.Size.ClusterN)
	lt.values["cluster.agglomerate_ns_n800"] = full
	lt.values["cluster.scaling_ratio"] = full / half
}

// runTraced is the traced pass of one workload. It never reports an
// end-to-end metric: it runs the layer table, the traced windows of the
// three workloads whose own output carries layer numbers (wildreport's
// -progress stages, the daemon's latency split by source and its
// /metrics.json), and the named workload twice — untraced, then traced —
// whose difference is the tracing overhead. Every run emits every
// per-layer metric, whichever workload it names.
func runTraced(ctx context.Context, name string, rc runConfig, tr *tracer) (*result, map[string]float64, error) {
	lt := &layerTable{tr: tr, values: map[string]float64{}, gate: &result{}}
	for _, step := range []func(context.Context, runConfig) error{
		lt.cleanCensusLayers, lt.hostileCensusLayers, lt.domainScanLayers, lt.epochLayers,
	} {
		if err := step(ctx, rc); err != nil {
			return nil, nil, err
		}
	}
	lt.clusterLayers(rc)

	// One set-up per window is enough here: setup_s is not reported.
	half := rc
	half.Window, half.Size.SetupReps = rc.Window/2, 1
	untraced, err := runWorkload(ctx, name, half)
	if err != nil {
		return nil, nil, err
	}
	half.Trace = tr
	traced, err := runWorkload(ctx, name, half)
	if err != nil {
		return nil, nil, err
	}
	lt.values["trace.overhead_share"] = (untraced.opsPerS() - traced.opsPerS()) / untraced.opsPerS()

	windows := map[string]*result{name: traced}
	ran := []*result{untraced, traced}
	third := half
	third.Window = rc.Window / 3
	for _, w := range []string{"study-report", "serve-hit", "serve-churn"} {
		if windows[w] != nil {
			continue
		}
		if windows[w], err = runWorkload(ctx, w, third); err != nil {
			return nil, nil, err
		}
		ran = append(ran, windows[w])
	}

	v := lt.values
	for k, val := range windows["study-report"].Layer {
		v[k] = val
	}
	hit, churnW := windows["serve-hit"].Layer, windows["serve-churn"].Layer
	for _, k := range []string{"lookup_p50_us", "lookup_p99_us", "lookup_p999_us", "lookup_max_us"} {
		v["resolvesvc."+k] = hit[k]
	}
	v["debughttp.socket_overhead_us"] = hit["lookup_p50_us"] - v["resolvesvc.handler_ns"]/1e3
	v["resolvesvc.churn_lookups_per_s"] = churnW["lookups_per_s"]
	v["resolvesvc.churn_lookup_p50_us"] = churnW["lookup_p50_us"]
	v["resolvesvc.churn_lookup_p99_us"] = churnW["lookup_p99_us"]
	for _, k := range []string{"hit_p50_us", "hit_p99_us", "probe_p50_us", "probe_p99_us", "probe_share", "coalesced_share", "probes_per_lookup"} {
		v["resolvesvc."+k] = churnW[k]
	}
	v["epoch.serving_epochs_per_s"] = churnW["epochs_per_s"]
	v["epoch.contention_ratio"] = ratio(churnW["epochs_per_s"], v["epoch.idle_epochs_per_s"])

	// A percentile with no sample behind it (no probe-path answer in a
	// short window) has no JSON form; it is reported as 0.
	for k, val := range v {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			v[k] = 0
		}
	}

	// The run is correct when the layer table's own checks and every
	// window's gate passed.
	gate := lt.gate
	gate.Workload, gate.InputDigest, gate.OpMs = name, traced.InputDigest, traced.OpMs
	for _, w := range ran {
		gate.Attempted += w.Attempted
		gate.Failed += w.Failed
		for _, p := range w.Problems {
			if len(gate.Problems) < maxProblems {
				gate.Problems = append(gate.Problems, w.Workload+": "+p)
			}
		}
		for _, n := range w.Notes {
			gate.note("%s: %s", w.Workload, n)
		}
	}
	return gate, v, nil
}
