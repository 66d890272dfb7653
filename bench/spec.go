package main

// This file is the benchmark's declaration: the six workloads, the
// end-to-end metrics with their regression bounds, and every per-layer
// metric with the end-to-end metric it is expected to move — written
// down before measuring. BENCHMARK.json at the repository root repeats
// the names, units, directions and bounds (TestSpecMatchesBenchmarkJSON
// keeps the two in step); its schema has no field for "moves", so that
// column lives only here and in README.md.

type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{"census-clean", "The paper's weekly scan at order 20: 0.7% of targets answer, so lfsr, query build and the wildnet host model do the work and decode almost none."},
	{"census-hostile", "Same sweep at order 18 under the hostile fault profile with 2 retry rounds: retry bookkeeping and fault draws dominate, the path census-clean bypasses."},
	{"domain-scan", "The paper's second scan type, week-9 resolvers x 155 names: every probe is answered, so View decode, the tuple collector and the wildnet DNS handler do the work."},
	{"study-report", "The built wildreport at order 18, 12 weeks: the researcher's time-to-report, dominated by snoop, classify and churn stages the sweep workloads never run."},
	{"serve-hit", "The built wildsvc with all epochs committed, closed loop over loopback on the pure store path: net/http, query parse, Service.Lookup, JSON encode."},
	{"serve-churn", "wildsvc while epochs keep committing, 80% pool and 20% random addresses: stripe write transactions, TTL refresh and coalesced demand probes beside the sweeper."},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricSpec declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer
// metrics, which have no bound). Moves names the end-to-end metric and
// workload a per-layer metric is expected to move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// The operation ("op") behind ops_per_s and cpu_us_per_op is the unit of
// useful work a user of each workload waits for: a census target
// covered, a (resolver, name) tuple completed, a report rendered, a
// correct 200 answer.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// timedOp names the operation whose latency each workload times (and
// whose count the run prints). What ops_per_s counts on each workload —
// retransmissions and failed answers are never work — is in README.md.
var timedOp = map[string]string{
	"census-clean":   "full sweep",
	"census-hostile": "full sweep",
	"domain-scan":    "full domain scan",
	"study-report":   "wildreport run",
	"serve-hit":      "lookup, request written to body read",
	"serve-churn":    "lookup, request written to body read",
}

var perLayer = []metricSpec{
	{Name: "lfsr.next_batch_ns_per_probe", Unit: "ns", Better: "lower", Moves: "ops_per_s on census-clean"},
	{Name: "dnswire.append_query_ns_per_probe", Unit: "ns", Better: "lower", Moves: "ops_per_s on census-clean"},
	{Name: "dnswire.view_decode_ns_per_response", Unit: "ns", Better: "lower", Moves: "ops_per_s on domain-scan; predicted no change on census-clean"},
	{Name: "dnswire.unpack_ns_per_response", Unit: "ns", Better: "lower", Moves: "ops_per_s on study-report"},
	{Name: "wildnet.send_batch_ns_per_probe", Unit: "ns", Better: "lower", Moves: "ops_per_s on census-clean"},
	{Name: "wildnet.send_batch_faulty_ns_per_probe", Unit: "ns", Better: "lower", Moves: "ops_per_s on census-hostile"},
	{Name: "wildnet.send_batch_dense_ns_per_probe", Unit: "ns", Better: "lower", Moves: "ops_per_s on domain-scan"},
	{Name: "wildnet.fault_drop_share", Unit: "ratio", Better: "lower", Moves: "explains census-hostile"},
	{Name: "wildnet.fault_garbled_share", Unit: "ratio", Better: "lower", Moves: "explains census-hostile"},
	{Name: "wildnet.world_build_s", Unit: "s", Better: "lower", Moves: "setup_s everywhere"},
	{Name: "scanner.sweep_w1_ns_per_probe", Unit: "ns", Better: "lower", Moves: "ops_per_s on census-clean"},
	{Name: "scanner.sweep_unattributed_ns_per_probe", Unit: "ns", Better: "lower", Moves: "ops_per_s on census-clean"},
	{Name: "scanner.workers_speedup", Unit: "ratio", Better: "higher", Moves: "ops_per_s on census-clean"},
	{Name: "scanner.response_share", Unit: "ratio", Better: "higher", Moves: "none; explains why decode is cheap on census"},
	{Name: "scanner.sends_per_target", Unit: "ratio", Better: "lower", Moves: "ops_per_s on census-hostile"},
	{Name: "scanner.retry_rounds", Unit: "count", Better: "lower", Moves: "ops_per_s on census-hostile"},
	{Name: "scanner.retry_overhead_ns_per_target", Unit: "ns", Better: "lower", Moves: "ops_per_s on census-hostile"},
	{Name: "scanner.allocs_per_probe", Unit: "count", Better: "lower", Moves: "cpu_us_per_op, peak_rss_mb on census-clean"},
	{Name: "scanner.bytes_per_probe", Unit: "B", Better: "lower", Moves: "cpu_us_per_op, peak_rss_mb on census-clean"},
	{Name: "scanner.domain_w1_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "ops_per_s on domain-scan"},
	{Name: "scanner.domain_unattributed_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "ops_per_s on domain-scan"},
	{Name: "scanner.tuple_answer_share", Unit: "ratio", Better: "higher", Moves: "ops_per_s on domain-scan"},
	{Name: "scanner.diff_ns_per_responder", Unit: "ns", Better: "lower", Moves: "epoch.serving_epochs_per_s on serve-churn"},
	{Name: "scanner.apply_deltas_ns_per_delta", Unit: "ns", Better: "lower", Moves: "epoch.serving_epochs_per_s on serve-churn"},
	{Name: "scanner.probe_ns", Unit: "ns", Better: "lower", Moves: "resolvesvc.churn_lookup_p99_us on serve-churn"},
	{Name: "churn.tracker_apply_ns_per_delta", Unit: "ns", Better: "lower", Moves: "epoch.serving_epochs_per_s on serve-churn; churn.weekly_scans_s"},
	{Name: "pipeline.queue_roundtrip_ns", Unit: "ns", Better: "lower", Moves: "epoch.serving_epochs_per_s on serve-churn (expected negligible)"},
	{Name: "epoch.sweep_share", Unit: "ratio", Better: "lower", Moves: "epoch.serving_epochs_per_s on serve-churn"},
	{Name: "epoch.diff_share", Unit: "ratio", Better: "lower", Moves: "epoch.serving_epochs_per_s on serve-churn"},
	{Name: "epoch.apply_share", Unit: "ratio", Better: "lower", Moves: "epoch.serving_epochs_per_s on serve-churn"},
	{Name: "epoch.idle_epochs_per_s", Unit: "1/s", Better: "higher", Moves: "epoch.serving_epochs_per_s on serve-churn"},
	{Name: "epoch.serving_epochs_per_s", Unit: "1/s", Better: "higher", Moves: "the write side of serve-churn, against ops_per_s on serve-churn"},
	{Name: "epoch.contention_ratio", Unit: "ratio", Better: "higher", Moves: "serving epochs/s over idle epochs/s"},
	{Name: "resolvesvc.store_get_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s on serve-hit"},
	{Name: "resolvesvc.store_apply_ns_per_delta", Unit: "ns", Better: "lower", Moves: "epoch.serving_epochs_per_s on serve-churn"},
	{Name: "resolvesvc.lookup_hit_ns", Unit: "ns", Better: "lower", Moves: "resolvesvc.lookup_p50_us on serve-hit (at most 0.1% of it)"},
	{Name: "resolvesvc.handler_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s, resolvesvc.lookup_p50_us on serve-hit"},
	{Name: "resolvesvc.handler_allocs", Unit: "count", Better: "lower", Moves: "ops_per_s, resolvesvc.lookup_p50_us on serve-hit"},
	{Name: "resolvesvc.response_bytes", Unit: "B", Better: "lower", Moves: "ops_per_s, resolvesvc.lookup_p50_us on serve-hit"},
	{Name: "debughttp.socket_overhead_us", Unit: "us", Better: "lower", Moves: "resolvesvc.lookup_p50_us, ops_per_s on serve-hit"},
	{Name: "resolvesvc.lookup_p50_us", Unit: "us", Better: "lower", Moves: "the serve-hit latency a client feels; ops_per_s on serve-hit"},
	{Name: "resolvesvc.lookup_p99_us", Unit: "us", Better: "lower", Moves: "serve-hit tail a client feels"},
	{Name: "resolvesvc.lookup_p999_us", Unit: "us", Better: "lower", Moves: "serve-hit tail"},
	{Name: "resolvesvc.lookup_max_us", Unit: "us", Better: "lower", Moves: "none; informational"},
	{Name: "resolvesvc.churn_lookups_per_s", Unit: "1/s", Better: "higher", Moves: "ops_per_s on serve-churn"},
	{Name: "resolvesvc.churn_lookup_p50_us", Unit: "us", Better: "lower", Moves: "the serve-churn latency a client feels"},
	{Name: "resolvesvc.churn_lookup_p99_us", Unit: "us", Better: "lower", Moves: "serve-churn tail a client feels"},
	{Name: "resolvesvc.hit_p50_us", Unit: "us", Better: "lower", Moves: "ops_per_s on serve-churn"},
	{Name: "resolvesvc.hit_p99_us", Unit: "us", Better: "lower", Moves: "resolvesvc.churn_lookup_p99_us on serve-churn"},
	{Name: "resolvesvc.probe_p50_us", Unit: "us", Better: "lower", Moves: "ops_per_s on serve-churn"},
	{Name: "resolvesvc.probe_p99_us", Unit: "us", Better: "lower", Moves: "resolvesvc.churn_lookup_p99_us on serve-churn"},
	{Name: "resolvesvc.probe_share", Unit: "ratio", Better: "lower", Moves: "ops_per_s on serve-churn"},
	{Name: "resolvesvc.coalesced_share", Unit: "ratio", Better: "higher", Moves: "ops_per_s on serve-churn"},
	{Name: "resolvesvc.probes_per_lookup", Unit: "ratio", Better: "lower", Moves: "ops_per_s on serve-churn"},
	{Name: "snoop.cache_snoop_s", Unit: "s", Better: "lower", Moves: "ops_per_s on study-report"},
	{Name: "snoop.minute_snoop_s", Unit: "s", Better: "lower", Moves: "ops_per_s on study-report"},
	{Name: "scanner.domain_scan_s", Unit: "s", Better: "lower", Moves: "ops_per_s on study-report"},
	{Name: "churn.weekly_scans_s", Unit: "s", Better: "lower", Moves: "ops_per_s on study-report"},
	{Name: "churn.cohort_track_s", Unit: "s", Better: "lower", Moves: "ops_per_s on study-report"},
	{Name: "classify.run_s", Unit: "s", Better: "lower", Moves: "ops_per_s on study-report"},
	{Name: "prefilter.run_s", Unit: "s", Better: "lower", Moves: "ops_per_s on study-report"},
	{Name: "core.ipv4_scan_s", Unit: "s", Better: "lower", Moves: "ops_per_s on study-report (all IPv4 sweeps of the report together)"},
	{Name: "core.other_stages_s", Unit: "s", Better: "lower", Moves: "ops_per_s on study-report"},
	{Name: "core.report_unattributed_s", Unit: "s", Better: "lower", Moves: "ops_per_s on study-report (world build, render)"},
	{Name: "core.report_traced_wall_s", Unit: "s", Better: "lower", Moves: "the wall time the stage metrics sum to"},
	{Name: "cluster.agglomerate_ns_n800", Unit: "ns", Better: "lower", Moves: "classify.run_s, then ops_per_s on study-report"},
	{Name: "cluster.scaling_ratio", Unit: "ratio", Better: "lower", Moves: "classify.run_s as the cluster input grows"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "none; (traced - untraced ops_per_s) / untraced on the traced workload"},
}
