package resolvesvc

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"goingwild/internal/dnswire"
	"goingwild/internal/geodb"
	"goingwild/internal/scanner"
)

func testLoc(u uint32) (string, geodb.RIR) { return "US", geodb.ARIN }

func add(addr uint32, rcode dnswire.RCode) scanner.ResponderDelta {
	return scanner.ResponderDelta{Op: scanner.DeltaAdd, Responder: scanner.Responder{Addr: addr, Source: addr, RCode: rcode, Answered: true}}
}

func update(addr uint32, rcode dnswire.RCode) scanner.ResponderDelta {
	return scanner.ResponderDelta{Op: scanner.DeltaUpdate, Responder: scanner.Responder{Addr: addr, Source: addr, RCode: rcode, Answered: true}}
}

func remove(addr uint32) scanner.ResponderDelta {
	return scanner.ResponderDelta{Op: scanner.DeltaRemove, Responder: scanner.Responder{Addr: addr, Source: addr}}
}

func TestStoreApplyEpochLifecycle(t *testing.T) {
	s := NewStore()
	if s.Epoch() != -1 {
		t.Fatalf("fresh store epoch = %d, want -1", s.Epoch())
	}

	// Epoch 0: two targets appear.
	if err := s.ApplyEpoch(0, []scanner.ResponderDelta{add(10, dnswire.RCodeNoError), add(20, dnswire.RCodeRefused)}, testLoc); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 0 || s.Records() != 2 || s.OpenCount() != 2 {
		t.Fatalf("after epoch 0: epoch=%d records=%d open=%d", s.Epoch(), s.Records(), s.OpenCount())
	}
	r, ok := s.Get(10)
	if !ok || !r.Open || r.FirstSeen != 0 || r.LastSeen != 0 || r.Flaps != 0 || r.Country != "US" {
		t.Fatalf("record 10 after epoch 0: %+v", r)
	}

	// Epoch 1: 10 changes rcode, 20 vanishes.
	if err := s.ApplyEpoch(1, []scanner.ResponderDelta{update(10, dnswire.RCodeRefused), remove(20)}, testLoc); err != nil {
		t.Fatal(err)
	}
	if s.Records() != 2 || s.OpenCount() != 1 {
		t.Fatalf("after epoch 1: records=%d open=%d", s.Records(), s.OpenCount())
	}
	r, _ = s.Get(10)
	if r.RCode != dnswire.RCodeRefused || r.LastSeen != 1 {
		t.Fatalf("record 10 after update: %+v", r)
	}
	r, _ = s.Get(20)
	if r.Open || r.LastSeen != 0 || r.Checked != 1 {
		t.Fatalf("record 20 after remove: %+v", r)
	}

	// Epoch 2: 20 reappears — that's one flap.
	if err := s.ApplyEpoch(2, []scanner.ResponderDelta{add(20, dnswire.RCodeNoError)}, testLoc); err != nil {
		t.Fatal(err)
	}
	r, _ = s.Get(20)
	if !r.Open || r.Flaps != 1 || r.FirstSeen != 0 || r.LastSeen != 2 {
		t.Fatalf("record 20 after flap: %+v", r)
	}
	if s.OpenCount() != 2 {
		t.Fatalf("open after flap = %d, want 2", s.OpenCount())
	}
}

func TestStoreApplyEpochContractViolations(t *testing.T) {
	s := NewStore()
	if err := s.ApplyEpoch(0, []scanner.ResponderDelta{add(5, dnswire.RCodeNoError)}, testLoc); err != nil {
		t.Fatal(err)
	}
	// Add of a present open target is producer drift.
	if err := s.ApplyEpoch(1, []scanner.ResponderDelta{add(5, dnswire.RCodeNoError)}, testLoc); err == nil {
		t.Error("add of present open target did not error")
	}
	// Update/remove of unknown targets likewise.
	if err := s.ApplyEpoch(1, []scanner.ResponderDelta{update(99, dnswire.RCodeNoError)}, testLoc); err == nil {
		t.Error("update of unknown target did not error")
	}
	if err := s.ApplyEpoch(1, []scanner.ResponderDelta{remove(99)}, testLoc); err == nil {
		t.Error("remove of unknown target did not error")
	}
}

func TestStoreRecordProbe(t *testing.T) {
	s := NewStore()
	if err := s.ApplyEpoch(0, []scanner.ResponderDelta{add(10, dnswire.RCodeNoError)}, testLoc); err != nil {
		t.Fatal(err)
	}

	// A probe-born record for a never-swept target.
	r := s.RecordProbe(77, 0, false, 0, false, testLoc)
	if r.FirstSeen != NeverSeen || r.Open || !r.Probed || r.ProbedAt != 0 {
		t.Fatalf("probe-born record: %+v", r)
	}
	if s.Records() != 2 || s.OpenCount() != 1 {
		t.Fatalf("after probe-born record: records=%d open=%d", s.Records(), s.OpenCount())
	}

	// A probe refreshing a sweep record keeps the longitudinal fields.
	r = s.RecordProbe(10, 3, true, dnswire.RCodeRefused, false, testLoc)
	if r.FirstSeen != 0 || r.LastSeen != 0 || r.ProbedAt != 3 || !r.Probed || r.RCode != dnswire.RCodeRefused {
		t.Fatalf("probe-refreshed record: %+v", r)
	}

	// A probe observing a sweep-open target gone dark flips the open count.
	r = s.RecordProbe(10, 4, false, 0, false, testLoc)
	if r.Open || s.OpenCount() != 0 {
		t.Fatalf("probe-darkened record: %+v open=%d", r, s.OpenCount())
	}

	// The next sweep add of the probe-darkened target is legal (the probe
	// overlay does not count as sweep presence) and counts the flap... no:
	// the target never left the sweep view, so an update is what arrives.
	if err := s.ApplyEpoch(1, []scanner.ResponderDelta{update(10, dnswire.RCodeNoError)}, testLoc); err != nil {
		t.Fatal(err)
	}
	r, _ = s.Get(10)
	if !r.Open || r.Probed || r.Flaps != 0 {
		t.Fatalf("sweep-reconfirmed record: %+v", r)
	}
}

func TestStoreFreshTTL(t *testing.T) {
	s := NewStore()
	stable := Record{Flaps: 0, Checked: 0}
	if !s.Fresh(stable, 1000) {
		t.Error("stable record went stale")
	}
	// One flap: TTL 8>>1 = 4 epochs since last evidence.
	flappy := Record{Flaps: 1, Checked: 10, ProbedAt: NeverSeen}
	if !s.Fresh(flappy, 13) {
		t.Error("once-flapped record stale within TTL")
	}
	if s.Fresh(flappy, 14) {
		t.Error("once-flapped record fresh past TTL")
	}
	// A demand probe is evidence too.
	flappy.ProbedAt = 12
	if !s.Fresh(flappy, 15) {
		t.Error("probe-refreshed record stale within TTL")
	}
	// Heavy flappers expire after one epoch (TTL floor).
	thrash := Record{Flaps: 9, Checked: 10}
	if !s.Fresh(thrash, 10) || s.Fresh(thrash, 11) {
		t.Error("heavy flapper TTL floor broken")
	}
}

// TestStoreConcurrentLookupsVsEpochApply is the race-stress test: readers
// hammer Get/List while a writer commits epoch after epoch. Under
// -race this proves the per-stripe transactions keep lookups and
// epoch-apply from touching records unsynchronized; the assertions prove
// no reader ever observes a torn record (a record newer than the
// published epoch floor is legal; an inconsistent one is not).
func TestStoreConcurrentLookupsVsEpochApply(t *testing.T) {
	const (
		targets = 512
		epochs  = 50
		readers = 4
	)
	s := NewStore()
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				default:
				}
				addr := uint32(i%targets + 1)
				if rec, ok := s.Get(addr); ok {
					// Torn-record check: sweep evidence must be coherent.
					if rec.Addr != addr {
						t.Errorf("record for %d carries addr %d", addr, rec.Addr)
						return
					}
					if rec.FirstSeen > rec.LastSeen || rec.Checked < rec.LastSeen {
						t.Errorf("incoherent record: %+v", rec)
						return
					}
				}
				if i%64 == 0 {
					s.List(true, 8)
				}
			}
		}(r)
	}

	// The writer: even epochs add/update everything, odd epochs remove
	// half, exercising every delta op against live readers.
	for e := 0; e < epochs; e++ {
		var deltas []scanner.ResponderDelta
		for a := uint32(1); a <= targets; a++ {
			switch {
			case e == 0:
				deltas = append(deltas, add(a, dnswire.RCodeNoError))
			case e%2 == 1 && a%2 == 0:
				deltas = append(deltas, remove(a))
			case e%2 == 0 && a%2 == 0:
				deltas = append(deltas, add(a, dnswire.RCodeNoError))
			case a%2 == 1:
				deltas = append(deltas, update(a, dnswire.RCodeRefused))
			}
		}
		if err := s.ApplyEpoch(e, deltas, testLoc); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	close(stopCh)
	wg.Wait()

	if s.Epoch() != epochs-1 {
		t.Fatalf("final epoch = %d, want %d", s.Epoch(), epochs-1)
	}
	if s.Records() != targets {
		t.Fatalf("records = %d, want %d", s.Records(), targets)
	}
	// Odd-addressed targets flapped never; even-addressed ones flapped
	// every other epoch.
	r, _ := s.Get(1)
	if r.Flaps != 0 {
		t.Errorf("stable target flaps = %d, want 0", r.Flaps)
	}
	r, _ = s.Get(2)
	if want := (epochs - 1) / 2; r.Flaps != want {
		t.Errorf("flappy target flaps = %d, want %d", r.Flaps, want)
	}
}

// TestStoredFormSmallAndPointerFree: the value a stripe's map holds is at
// most 24 bytes and contains nothing the garbage collector must follow, so
// a later field cannot silently bring the scan (or the bytes) back.
func TestStoredFormSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(stored{}); size > 24 {
		t.Errorf("unsafe.Sizeof(stored{}) = %d, want <= 24", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: the stored form must hold no pointers", path, typ.Kind())
		}
	}
	walk("stored", reflect.TypeOf(stored{}))
}

// reachableRecord draws a Record the store can come to hold: any state
// bits and rcode, a registry country or the empty one, epochs that are
// NeverSeen or fit 32 bits, and flap counts on both sides of every edge
// the stored form and Fresh have.
func reachableRecord(rng *rand.Rand) Record {
	epoch := func() int {
		if rng.Intn(4) == 0 {
			return NeverSeen
		}
		return int(rng.Int31())
	}
	flapEdges := []int{0, 1, 30, 31, math.MaxUint16, 70000}
	flaps := rng.Intn(math.MaxUint16 + 1)
	if rng.Intn(2) == 0 {
		flaps = flapEdges[rng.Intn(len(flapEdges))]
	}
	r := Record{
		Addr:      rng.Uint32(),
		Open:      rng.Intn(2) == 0,
		RCode:     dnswire.RCode(rng.Intn(256)),
		Answered:  rng.Intn(2) == 0,
		FirstSeen: epoch(),
		LastSeen:  epoch(),
		Flaps:     flaps,
		Checked:   epoch(),
		ProbedAt:  epoch(),
		Probed:    rng.Intn(2) == 0,
	}
	if ci := rng.Intn(len(geodb.Countries) + 1); ci < len(geodb.Countries) {
		r.Country, r.RIR = geodb.Countries[ci].Code, geodb.Countries[ci].RIR
	}
	return r
}

// TestPackUnpackRoundTrip: what goes into a stripe comes back out — every
// field but Flaps exactly, Flaps saturated at 65 535, and Fresh giving the
// packed record the verdict it gives the original at any epoch.
func TestPackUnpackRoundTrip(t *testing.T) {
	s := NewStore()
	property := func(seed int64, at int32) bool {
		r := reachableRecord(rand.New(rand.NewSource(seed)))
		got := s.unpack(r.Addr, pack(r, s.intern(r.Country)))
		want := r
		want.Flaps = min(r.Flaps, math.MaxUint16)
		if got != want {
			t.Logf("packed %+v, unpacked %+v", r, got)
			return false
		}
		return s.Fresh(got, int(at)) == s.Fresh(r, int(at))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	// Every registry country, and the empty country of out-of-registry
	// space, survives the intern table.
	for _, c := range append([]geodb.Country{{}}, geodb.Countries...) {
		r := Record{Addr: 1, Country: c.Code, RIR: c.RIR}
		if got := s.unpack(1, pack(r, s.intern(c.Code))); got != r {
			t.Errorf("country %q: unpacked %+v", c.Code, got)
		}
	}
	// A sweep cannot push a saturated flap count over the edge.
	if err := s.ApplyEpoch(0, []scanner.ResponderDelta{add(7, dnswire.RCodeNoError)}, testLoc); err != nil {
		t.Fatal(err)
	}
	sh := &s.shards[shardOf(7)]
	p := sh.m[7]
	p.flaps = math.MaxUint16
	p.flags &^= flagOpen
	sh.m[7] = p
	if err := s.ApplyEpoch(1, []scanner.ResponderDelta{add(7, dnswire.RCodeNoError)}, testLoc); err != nil {
		t.Fatal(err)
	}
	if r, _ := s.Get(7); r.Flaps != math.MaxUint16 {
		t.Errorf("flaps after a flap at saturation = %d, want %d", r.Flaps, math.MaxUint16)
	}
}

// TestStoreInternConcurrentReaders: the country table grows under the
// writer while readers unpack through it. Every epoch brings addresses of
// countries the store has not seen; a reader must always get the country
// the Locator gave that address, never a neighbour's or a torn table
// (run under -race by `make race`).
func TestStoreInternConcurrentReaders(t *testing.T) {
	const (
		epochs   = 40
		perEpoch = 16
	)
	countryOf := func(u uint32) string { return string([]byte{'A' + byte(u/26%26), 'A' + byte(u%26)}) }
	loc := func(u uint32) (string, geodb.RIR) { return countryOf(u), geodb.RIPE }
	s := NewStore()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint32(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				addr := i%(epochs*perEpoch) + 1
				if rec, ok := s.Get(addr); ok && rec.Country != countryOf(addr) {
					t.Errorf("record %d reads country %q, want %q", addr, rec.Country, countryOf(addr))
					return
				}
				if i%256 == 0 {
					for _, rec := range s.List(false, 0) {
						if rec.Country != countryOf(rec.Addr) {
							t.Errorf("listed record %d reads country %q, want %q", rec.Addr, rec.Country, countryOf(rec.Addr))
							return
						}
					}
				}
			}
		}()
	}
	for e := 0; e < epochs; e++ {
		deltas := make([]scanner.ResponderDelta, perEpoch)
		for i := range deltas {
			deltas[i] = add(uint32(e*perEpoch+i+1), dnswire.RCodeNoError)
		}
		if err := s.ApplyEpoch(e, deltas, loc); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := len(*s.countries.Load()); got != epochs*perEpoch+1 {
		t.Errorf("intern table holds %d entries, want %d countries and the empty one", got, epochs*perEpoch)
	}
}

// TestStoreApplyEpochRefusesWideEpoch: the stored form's epochs are 32
// bits, so an epoch past them is refused, not truncated.
func TestStoreApplyEpochRefusesWideEpoch(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits: every epoch fits")
	}
	s := NewStore()
	wide := math.MaxInt32
	wide++
	if err := s.ApplyEpoch(wide, []scanner.ResponderDelta{add(5, dnswire.RCodeNoError)}, testLoc); err == nil {
		t.Error("epoch MaxInt32+1 accepted")
	}
	if s.Records() != 0 || s.Epoch() != -1 {
		t.Errorf("refused epoch left records=%d epoch=%d", s.Records(), s.Epoch())
	}
	if err := s.ApplyEpoch(math.MaxInt32, []scanner.ResponderDelta{add(5, dnswire.RCodeNoError)}, testLoc); err != nil {
		t.Errorf("epoch MaxInt32 refused: %v", err)
	}
	if r, _ := s.Get(5); r.FirstSeen != math.MaxInt32 {
		t.Errorf("FirstSeen = %d, want MaxInt32", r.FirstSeen)
	}
}

// TestStoreBytesPerRecord is the memory contract: the store never drops a
// record, so what a dead one costs decides what a long-running wildsvc
// costs. 200 000 records added by one epoch and removed by the next may
// hold at most 64 bytes of live heap each (the map[uint32]Record this
// replaced held ≈ 126 in this test, ≈ 180 in a live daemon).
func TestStoreBytesPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const n = 200000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	s := NewStore()
	func() {
		deltas := make([]scanner.ResponderDelta, n)
		for i := range deltas {
			deltas[i] = add(uint32(i)*2654435761, dnswire.RCodeNoError)
		}
		if err := s.ApplyEpoch(0, deltas, testLoc); err != nil {
			t.Fatal(err)
		}
		for i := range deltas {
			deltas[i] = remove(deltas[i].Addr())
		}
		if err := s.ApplyEpoch(1, deltas, testLoc); err != nil {
			t.Fatal(err)
		}
	}()
	after := heap()
	if s.Records() != n || s.OpenCount() != 0 {
		t.Fatalf("records=%d open=%d, want %d dead records", s.Records(), s.OpenCount(), n)
	}
	perRecord := (float64(after) - float64(before)) / n
	t.Logf("%.1f B of live heap per dead record", perRecord)
	if perRecord > 64 {
		t.Errorf("a dead record costs %.1f B of live heap, want <= 64", perRecord)
	}
	runtime.KeepAlive(s)
}

func TestStoreList(t *testing.T) {
	s := NewStore()
	var deltas []scanner.ResponderDelta
	for a := uint32(1); a <= 20; a++ {
		deltas = append(deltas, add(a, dnswire.RCodeNoError))
	}
	if err := s.ApplyEpoch(0, deltas, testLoc); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyEpoch(1, []scanner.ResponderDelta{remove(5), remove(6)}, testLoc); err != nil {
		t.Fatal(err)
	}
	all := s.List(false, 0)
	if len(all) != 20 {
		t.Fatalf("List(all) = %d records, want 20", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Addr >= all[i].Addr {
			t.Fatalf("List not sorted at %d: %v >= %v", i, all[i-1].Addr, all[i].Addr)
		}
	}
	open := s.List(true, 0)
	if len(open) != 18 {
		t.Fatalf("List(open) = %d records, want 18", len(open))
	}
	if lim := s.List(false, 7); len(lim) != 7 {
		t.Fatalf("List(limit 7) = %d records", len(lim))
	}
}

func TestShardOfSpread(t *testing.T) {
	// The multiplicative hash must spread sequential addresses across
	// stripes (sequential keys all landing in one stripe would serialize
	// the hot path).
	seen := map[uint32]int{}
	for a := uint32(0); a < 4096; a++ {
		si := shardOf(a)
		if si >= nShards {
			t.Fatalf("shardOf(%d) = %d out of range", a, si)
		}
		seen[si]++
	}
	if len(seen) < nShards/2 {
		t.Errorf("sequential addresses hit only %d/%d stripes", len(seen), nShards)
	}
	for si, n := range seen {
		if n > 4096/nShards*4 {
			t.Errorf("stripe %d got %d of 4096 sequential keys", si, n)
		}
	}
}

func TestStoreEpochPublishOrder(t *testing.T) {
	// Epoch() is a floor: it must not advance before all stripes commit.
	// Serial proof: after ApplyEpoch returns, every delta is visible at
	// the published epoch.
	s := NewStore()
	for e := 0; e < 5; e++ {
		var deltas []scanner.ResponderDelta
		for a := uint32(1); a <= 64; a++ {
			if e == 0 {
				deltas = append(deltas, add(a, dnswire.RCodeNoError))
			} else {
				deltas = append(deltas, update(a, dnswire.RCodeNoError))
			}
		}
		if err := s.ApplyEpoch(e, deltas, testLoc); err != nil {
			t.Fatal(err)
		}
		for a := uint32(1); a <= 64; a++ {
			r, ok := s.Get(a)
			if !ok || r.Checked != s.Epoch() {
				t.Fatalf("epoch %d: record %d not at published epoch: %+v", e, a, r)
			}
		}
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s := NewStore()
	var deltas []scanner.ResponderDelta
	for a := uint32(1); a <= 4096; a++ {
		deltas = append(deltas, add(a, dnswire.RCodeNoError))
	}
	if err := s.ApplyEpoch(0, deltas, testLoc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var i uint32
		for pb.Next() {
			i++
			if _, ok := s.Get(i%4096 + 1); !ok {
				b.Fatal("miss")
			}
		}
	})
}
