package main

import (
	"context"
	"fmt"
	"math"
	"time"
)

// sizing fixes how large each workload's world is. fullSize is what
// every committed number is measured at; the smoke test shrinks it.
type sizing struct {
	CensusOrder  uint
	HostileOrder uint
	DomainOrder  uint
	ReportOrder  uint
	ReportWeeks  int
	ReportWeek   int
	HitOrder     uint
	HitEpochs    int
	ChurnOrder   uint
	// ChurnWaitEpoch is the committed epoch serve-churn waits for before
	// it fetches its pool; ChurnStartEpoch is the later epoch at which
	// its window opens. The daemon slows as simulated weeks advance, so
	// the window must open at the same epoch every run to be repeatable,
	// and a little way in, where the rate changes less from epoch to epoch.
	ChurnWaitEpoch  int
	ChurnStartEpoch int
	// ClusterN is the larger of the two cluster.Agglomerate inputs.
	ClusterN int
	// SetupReps is how many times a workload sets up from scratch;
	// setup_s is the median, so one slow start does not decide it.
	SetupReps int
}

var fullSize = sizing{
	CensusOrder: 20, HostileOrder: 18, DomainOrder: 18,
	ReportOrder: 18, ReportWeeks: 12, ReportWeek: 9,
	HitOrder: 16, HitEpochs: 8,
	ChurnOrder: 18, ChurnWaitEpoch: 8, ChurnStartEpoch: 32,
	ClusterN:  800,
	SetupReps: 3,
}

// runConfig is one workload run.
type runConfig struct {
	Seed   uint64
	Window time.Duration
	Size   sizing
	Bins   binaries
	// Trace is nil on the untraced pass (see tracer).
	Trace *tracer
}

// interval is one measured stretch of a window: the useful work finished
// in it (see spec.go), how long it took, and the user+system CPU the
// measured process spent in it.
type interval struct {
	Work float64
	Wall time.Duration
	CPU  time.Duration
}

// result is what one workload window produced.
type result struct {
	Workload    string
	InputDigest string
	// Attempted and Failed count operations against the correctness
	// gate; Problems names what failed (capped) and is empty on success.
	Attempted int64
	Failed    int64
	Problems  []string
	// Notes names what a gate saw and let pass (capped like Problems).
	Notes []string
	// Setup is the median time from nothing to ready-to-measure.
	Setup time.Duration
	// Intervals splits the window into comparable stretches — one cycle
	// of the census week set, one domain scan, one report, one second of
	// serving. Throughput and CPU cost are medians over them, so one
	// stall (a noisy neighbour, a long GC) does not decide a run.
	Intervals []interval
	// OpMs is each timed operation's latency.
	OpMs      []float64
	PeakRSSMB float64
	// Yard holds the yardstick bursts run between the intervals.
	Yard yardstick
	// Layer carries the workload-specific numbers a traced window adds
	// (stage times, latency split by source, epoch rate).
	Layer map[string]float64
}

const maxProblems = 8

// fail counts one failed operation and remembers why.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// note remembers something a gate let pass but a reader should see.
func (r *result) note(format string, args ...any) {
	if len(r.Notes) < maxProblems {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// opsPerS is the median over the window's intervals of work ÷ wall time.
func (r *result) opsPerS() float64 {
	rates := make([]float64, len(r.Intervals))
	for i, iv := range r.Intervals {
		rates[i] = iv.Work / iv.Wall.Seconds()
	}
	return median(rates)
}

// cpuUsPerOp is the median over the window's intervals of CPU ÷ work.
func (r *result) cpuUsPerOp() float64 {
	costs := make([]float64, len(r.Intervals))
	for i, iv := range r.Intervals {
		costs[i] = iv.CPU.Seconds() * 1e6 / iv.Work
	}
	return median(costs)
}

// measuredValues are the end-to-end metrics as the clocks read them.
func (r *result) measuredValues() map[string]float64 {
	return map[string]float64{
		"setup_s":       r.Setup.Seconds(),
		"ops_per_s":     r.opsPerS(),
		"cpu_us_per_op": r.cpuUsPerOp(),
		"peak_rss_mb":   r.PeakRSSMB,
	}
}

// endToEndValues derives the declared end-to-end metrics from a window:
// the measured values, the timed ones brought to the nominal machine
// speed by the run's yardstick (see yardstick.go).
func (r *result) endToEndValues() map[string]float64 {
	v := r.measuredValues()
	wall, cpu := r.Yard.speed()
	v["setup_s"] *= wall
	v["ops_per_s"] /= wall
	v["cpu_us_per_op"] *= cpu
	return v
}

// runWorkload dispatches one workload by name.
func runWorkload(ctx context.Context, name string, rc runConfig) (*result, error) {
	var (
		r   *result
		err error
	)
	switch name {
	case "census-clean":
		r, err = runCensus(ctx, rc, false)
	case "census-hostile":
		r, err = runCensus(ctx, rc, true)
	case "domain-scan":
		r, err = runDomainScan(ctx, rc)
	case "study-report":
		r, err = runStudyReport(ctx, rc)
	case "serve-hit":
		r, err = runServe(ctx, rc, false)
	case "serve-churn":
		r, err = runServe(ctx, rc, true)
	default:
		return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, workloadNames())
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.Workload = name
	r.InputDigest = inputDigest(name, rc.Seed)
	for k, v := range r.endToEndValues() {
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("end-to-end metric %s is %v", k, v)
		}
	}
	return r, nil
}

// medianDuration is the median of a few repeated timings.
func medianDuration(ds []time.Duration) time.Duration {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d)
	}
	return time.Duration(median(vals))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
