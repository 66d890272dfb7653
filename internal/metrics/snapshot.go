package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Class string `json:"class"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Class string `json:"class"`
	Value int64  `json:"value"`
}

// Bucket is one histogram bucket: the count of observations at or below
// the upper bound. The overflow bucket has Upper == nil.
type Bucket struct {
	Upper *int64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramValue is one histogram in a snapshot.
type HistogramValue struct {
	Name    string   `json:"name"`
	Class   string   `json:"class"`
	Buckets []Bucket `json:"buckets"`
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
}

// Snapshot is a point-in-time copy of a registry, sorted by name within
// each section. Equal registries produce byte-identical exports.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot copies the registry's current values. A nil registry yields
// an empty snapshot. Counters and histogram buckets are read without a
// global pause, so a snapshot taken mid-scan is a consistent-enough
// operator view, not a linearizable cut; snapshots taken after the
// instrumented work finishes are exact.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.names))
	for _, e := range r.names {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, e := range entries {
		switch {
		case e.counter != nil:
			s.Counters = append(s.Counters, CounterValue{
				Name: e.name, Class: e.class.String(), Value: e.counter.Value(),
			})
		case e.gauge != nil:
			s.Gauges = append(s.Gauges, GaugeValue{
				Name: e.name, Class: e.class.String(), Value: e.gauge.Value(),
			})
		case e.hist != nil:
			h := e.hist
			hv := HistogramValue{Name: e.name, Class: e.class.String(), Sum: h.sum.Load()}
			for i := range h.counts {
				n := h.counts[i].Load()
				b := Bucket{Count: n}
				if i < len(h.bounds) {
					u := h.bounds[i]
					b.Upper = &u
				}
				hv.Buckets = append(hv.Buckets, b)
				hv.Count += n
			}
			s.Histograms = append(s.Histograms, hv)
		}
	}
	return s
}

// StripTiming returns a copy of the snapshot without timing-class
// metrics — the form determinism checks compare byte-for-byte across
// runs and GOMAXPROCS settings.
// Test support: the equivalence harness and other packages' tests strip
// their snapshots with it.
func (s Snapshot) StripTiming() Snapshot {
	var out Snapshot
	for _, c := range s.Counters {
		if c.Class != Timing.String() {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if g.Class != Timing.String() {
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Histograms {
		if h.Class != Timing.String() {
			out.Histograms = append(out.Histograms, h)
		}
	}
	return out
}

// Counter returns the value of the named counter (0 when absent), for
// test assertions against a snapshot.
func (s Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the value of the named gauge (0 when absent).
func (s Snapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// WriteJSON writes the snapshot as indented JSON. Sections and entries
// are already sorted, so equal snapshots serialize byte-identically.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format: one TYPE line and one sample per metric, names sanitized to
// the [a-zA-Z0-9_] alphabet, histograms expanded into cumulative
// _bucket/_sum/_count series.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, c := range s.Counters {
		n := promName(c.Name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, c.Value)
	}
	for _, g := range s.Gauges {
		n := promName(g.Name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", n, n, g.Value)
	}
	for _, h := range s.Histograms {
		n := promName(h.Name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
		cum := uint64(0)
		for _, bk := range h.Buckets {
			cum += bk.Count
			le := "+Inf"
			if bk.Upper != nil {
				le = fmt.Sprintf("%d", *bk.Upper)
			}
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", n, le, cum)
		}
		fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", n, h.Sum, n, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promName maps a dotted registry name to the Prometheus alphabet.
func promName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
