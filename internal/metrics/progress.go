package metrics

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Clock is the minimal clock the progress reporter needs. It is
// structurally satisfied by scanner.Clock, so the cmds hand their
// injected clock straight through and fake-clock tests drive the
// reporter deterministically — the package never touches the wall
// clock itself.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// StartProgress launches a reporter goroutine that writes one
// ProgressLine to w per interval, slept on clock. The returned stop
// function halts the reporter: no line is written after stop returns.
// Progress output is an operator side channel — point w at stderr, never
// stdout.
func StartProgress(w io.Writer, clock Clock, interval time.Duration, r *Registry) (stop func()) {
	var mu sync.Mutex // serializes writes against stop
	stopped := false
	go func() {
		for {
			clock.Sleep(interval)
			mu.Lock()
			if stopped {
				mu.Unlock()
				return
			}
			fmt.Fprintln(w, ProgressLine(r.Snapshot()))
			mu.Unlock()
		}
	}()
	return func() {
		mu.Lock()
		stopped = true
		mu.Unlock()
	}
}

// Traffic sums the run's probe traffic: every *.sent counter and every
// *.recv counter, whichever scan entrypoints tallied them.
func (s Snapshot) Traffic() (sent, recv uint64) {
	for _, c := range s.Counters {
		switch {
		case strings.HasSuffix(c.Name, ".sent"):
			sent += c.Value
		case strings.HasSuffix(c.Name, ".recv"):
			recv += c.Value
		}
	}
	return sent, recv
}

// TrafficLine renders Traffic as "sent=N recv=M (P%)", the form the
// progress line and dnsscan's exit line share.
func (s Snapshot) TrafficLine() string {
	sent, recv := s.Traffic()
	ratio := 0.0
	if sent > 0 {
		ratio = float64(recv) / float64(sent)
	}
	return fmt.Sprintf("sent=%d recv=%d (%.1f%%)", sent, recv, 100*ratio)
}

// ProgressLine renders the operator's one-line traffic summary: total
// probes sent and responses received (Traffic), injected faults, and
// pipeline stage progress. It is the simulated analogue of the live rate
// accounting the paper's operators watched during their weekly censuses
// (§2.2).
func ProgressLine(s Snapshot) string {
	var faults uint64
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, "wildnet.fault.") {
			faults += c.Value
		}
	}
	return fmt.Sprintf("progress: %s faults=%d stages=%d/%d",
		s.TrafficLine(), faults,
		s.Counter("pipeline.stage.done"),
		s.Counter("pipeline.stage.done")+s.Counter("pipeline.stage.failed")+
			s.Counter("pipeline.stage.skipped"))
}
