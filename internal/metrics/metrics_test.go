package metrics

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := New()
	c := r.Counter("scan.sent")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("scan.inflight")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	h := r.Histogram("scan.batch", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("got %d histograms, want 1", len(s.Histograms))
	}
	hv := s.Histograms[0]
	if hv.Count != 3 || hv.Sum != 555 {
		t.Errorf("count=%d sum=%d, want 3/555", hv.Count, hv.Sum)
	}
	wantBuckets := []uint64{1, 1, 1}
	for i, b := range hv.Buckets {
		if b.Count != wantBuckets[i] {
			t.Errorf("bucket %d count = %d, want %d", i, b.Count, wantBuckets[i])
		}
	}
	if hv.Buckets[2].Upper != nil {
		t.Error("overflow bucket must have nil upper bound")
	}
}

// TestSameNameReturnsSameMetric pins the registry contract: repeated
// resolution of one name yields one underlying metric, so subsystems
// can resolve handles independently.
func TestSameNameReturnsSameMetric(t *testing.T) {
	r := New()
	r.Counter("x").Inc()
	r.Counter("x").Inc()
	if got := r.Counter("x").Value(); got != 2 {
		t.Errorf("counter = %d, want 2", got)
	}
	h1 := r.Histogram("h", []int64{1, 2})
	h2 := r.Histogram("h", []int64{1, 2})
	if h1 != h2 {
		t.Error("same name+bounds returned distinct histograms")
	}
}

// TestNilRegistryIsNoOp: a nil registry is the "metrics off"
// configuration; every handle it returns must absorb updates silently.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.TimingGauge("b")
	g.Set(5)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge accumulated")
	}
	h := r.Histogram("c", []int64{1})
	h.Observe(100)
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil registry produced a non-empty snapshot")
	}
}

// TestConflictingRegistrationPanics: one name, one meaning. Silently
// merging a counter with a gauge (or a timing metric with a
// deterministic one) would corrupt both, so the registry panics.
func TestConflictingRegistrationPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := New()
	r.Counter("kind")
	expectPanic("kind conflict", func() { r.Gauge("kind") })
	r.Counter("class")
	expectPanic("class conflict", func() { r.TimingCounter("class") })
	r.Histogram("buckets", []int64{1, 2})
	expectPanic("bucket mismatch", func() { r.Histogram("buckets", []int64{1, 3}) })
	expectPanic("bucket count mismatch", func() { r.Histogram("buckets", []int64{1}) })
	expectPanic("unsorted bounds", func() { r.Histogram("bad", []int64{2, 1}) })
}

// TestSnapshotSortedAndReproducible: registration order must not leak
// into the export — two registries filled in opposite orders serialize
// byte-identically.
func TestSnapshotSortedAndReproducible(t *testing.T) {
	fill := func(names []string) *Registry {
		r := New()
		for _, n := range names {
			r.Counter(n).Add(uint64(len(n)))
		}
		r.Gauge("g.z").Set(1)
		r.Gauge("g.a").Set(2)
		return r
	}
	a := fill([]string{"b", "c", "a"})
	b := fill([]string{"a", "b", "c"})
	var bufA, bufB bytes.Buffer
	if err := a.Snapshot().WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot().WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Errorf("registration order leaked into the export:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}
	names := a.Snapshot().Counters
	for i := 1; i < len(names); i++ {
		if names[i-1].Name >= names[i].Name {
			t.Errorf("counters not sorted: %q before %q", names[i-1].Name, names[i].Name)
		}
	}
}

// TestStripTimingSurvivesJSON: a determinism check filters on the
// exported class string, so stripping must work on a snapshot that has
// been through a JSON round-trip (e.g. one read back from a -metrics
// file).
func TestStripTimingSurvivesJSON(t *testing.T) {
	r := New()
	r.Counter("det.count").Inc()
	r.TimingCounter("time.count").Inc()
	r.Gauge("det.gauge").Set(1)
	r.TimingGauge("time.gauge").Set(1)
	r.Histogram("det.hist", []int64{1}).Observe(1)
	r.TimingHistogram("time.hist", []int64{1}).Observe(1)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatal(err)
	}
	stripped := round.StripTiming()
	if len(stripped.Counters) != 1 || stripped.Counters[0].Name != "det.count" {
		t.Errorf("counters after strip: %+v", stripped.Counters)
	}
	if len(stripped.Gauges) != 1 || stripped.Gauges[0].Name != "det.gauge" {
		t.Errorf("gauges after strip: %+v", stripped.Gauges)
	}
	if len(stripped.Histograms) != 1 || stripped.Histograms[0].Name != "det.hist" {
		t.Errorf("histograms after strip: %+v", stripped.Histograms)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("scan.sweep.sent").Add(12)
	r.Gauge("pipeline.stage.census.ms").Set(34)
	r.Histogram("pipeline.stage.duration.ms", []int64{10, 100}).Observe(5)
	r.Histogram("pipeline.stage.duration.ms", []int64{10, 100}).Observe(50)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE scan_sweep_sent counter",
		"scan_sweep_sent 12",
		"# TYPE pipeline_stage_census_ms gauge",
		"pipeline_stage_census_ms 34",
		"# TYPE pipeline_stage_duration_ms histogram",
		`pipeline_stage_duration_ms_bucket{le="10"} 1`,
		`pipeline_stage_duration_ms_bucket{le="100"} 2`,
		`pipeline_stage_duration_ms_bucket{le="+Inf"} 2`,
		"pipeline_stage_duration_ms_sum 55",
		"pipeline_stage_duration_ms_count 2",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("prometheus text:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestConcurrentUpdatesAreSchedulerIndependent is the reproducibility
// stress test: many goroutines hammer one registry (also racing the
// name lookups), and the final snapshot must equal the arithmetic
// total regardless of GOMAXPROCS or interleaving. Run under -race this
// also proves the registry is data-race free.
func TestConcurrentUpdatesAreSchedulerIndependent(t *testing.T) {
	const goroutines, perG = 16, 1000
	run := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r := New()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					// Resolve by name each time: lookup is part of the
					// concurrent surface under test.
					r.Counter("stress.count").Inc()
					r.Counter("stress.bytes").Add(3)
					r.Histogram("stress.hist", []int64{256, 512}).Observe(int64(i % 1024))
				}
				r.Gauge("stress.workers").Set(goroutines)
			}(g)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	first := run(1)
	var snap Snapshot
	if err := json.Unmarshal(first, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter("stress.count"); got != goroutines*perG {
		t.Errorf("stress.count = %d, want %d", got, goroutines*perG)
	}
	if got := snap.Counter("stress.bytes"); got != 3*goroutines*perG {
		t.Errorf("stress.bytes = %d, want %d", got, 3*goroutines*perG)
	}
	for _, procs := range []int{2, runtime.NumCPU()} {
		if again := run(procs); !bytes.Equal(first, again) {
			t.Errorf("snapshot diverged at GOMAXPROCS=%d:\n%s\nvs\n%s", procs, first, again)
		}
	}
}
