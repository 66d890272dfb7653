package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/resolvesvc"
)

// TestMain lets a test run the command itself: with runMainEnv set, the
// test binary is wildsvc.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "WILDSVC_TEST_RUN_MAIN"

// apiBanner starts the stderr line that names the bound address.
const apiBanner = "wildsvc: query API on "

// fetch gets base+path, requires the status want, and decodes the JSON
// body into out.
func fetch(base, path string, want int, out any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("GET %s: status %d, want %d: %s", path, resp.StatusCode, want, body)
	}
	return json.Unmarshal(body, out)
}

// getJSON is fetch for the test goroutine: an error ends the test.
func getJSON(t *testing.T, base, path string, want int, out any) {
	t.Helper()
	if err := fetch(base, path, want, out); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonServesOverHTTP runs the daemon for three epochs at order 16
// and drives its query API over a real socket: a known responder is a
// store hit, an address no sweep saw takes the probe path, an address
// outside the scanned space is refused without a trace, a concurrent
// burst on one cold address costs one probe, and the status agrees with
// the records. SIGINT then shuts it down with exit 0.
func TestDaemonServesOverHTTP(t *testing.T) {
	const order, epochs = 16, 3
	cmd := exec.Command(os.Args[0], "-order", fmt.Sprint(order), "-epochs", fmt.Sprint(epochs), "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	defer func() {
		cmd.Process.Kill()
		<-exited
	}()
	// Read stderr to its end, so the daemon never blocks on the pipe;
	// the banner line hands over the base URL.
	bound := make(chan string, 1)
	var logMu sync.Mutex
	var log strings.Builder
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if url, ok := strings.CutPrefix(sc.Text(), apiBanner); ok {
				bound <- url
			}
			logMu.Lock()
			fmt.Fprintln(&log, sc.Text())
			logMu.Unlock()
		}
		exited <- cmd.Wait()
	}()
	stderrText := func() string {
		logMu.Lock()
		defer logMu.Unlock()
		return log.String()
	}
	var base string
	select {
	case base = <-bound:
	case <-time.After(30 * time.Second):
		t.Fatalf("no %q line on stderr:\n%s", apiBanner, stderrText())
	}

	var st resolvesvc.StatusResponse
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(20 * time.Millisecond) {
		getJSON(t, base, "/svc/status", http.StatusOK, &st)
		if st.Epoch == epochs-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status stuck at epoch %d:\n%s", st.Epoch, stderrText())
		}
	}
	counter := func(name string) uint64 {
		t.Helper()
		var snap metrics.Snapshot
		getJSON(t, base, "/metrics.json", http.StatusOK, &snap)
		return snap.Counter(name)
	}
	// Two in-space addresses the store has no record of, for the miss
	// and the burst.
	var all []resolvesvc.LookupResponse
	getJSON(t, base, "/resolvers?limit=0", http.StatusOK, &all)
	known := map[string]bool{}
	for _, r := range all {
		known[r.IP] = true
	}
	var cold []string
	for a := uint32(1); a < 1<<order && len(cold) < 2; a++ {
		if ip := lfsr.U32ToAddr(a).String(); !known[ip] {
			cold = append(cold, ip)
		}
	}
	if len(cold) < 2 {
		t.Fatal("no cold addresses left in the scanned space")
	}

	// A known responder: served from the store, correctly shaped.
	var open []resolvesvc.LookupResponse
	getJSON(t, base, "/resolvers?limit=1&open=1", http.StatusOK, &open)
	if len(open) != 1 {
		t.Fatalf("/resolvers?limit=1&open=1 returned %d records", len(open))
	}
	var lr resolvesvc.LookupResponse
	getJSON(t, base, "/resolver?ip="+open[0].IP, http.StatusOK, &lr)
	if !lr.Known || !lr.Open || lr.IP != open[0].IP || lr.RCode == "" || lr.Epoch != epochs-1 || lr.Source != "store" {
		t.Errorf("known responder %s answered %+v", open[0].IP, lr)
	}
	if counter("svc.lookup.hit") == 0 {
		t.Error("known-responder lookup did not count as a hit")
	}

	// A miss: an in-space address no sweep saw answers via a probe.
	lr = resolvesvc.LookupResponse{}
	getJSON(t, base, "/resolver?ip="+cold[0], http.StatusOK, &lr)
	if lr.Source != "probe" || lr.FirstSeenEpoch != resolvesvc.NeverSeen {
		t.Errorf("miss %s answered %+v", cold[0], lr)
	}
	if counter("svc.lookup.miss") == 0 {
		t.Error("miss lookup did not count as a miss")
	}

	// Outside the scanned space — address zero and the first address past
	// 2^order−1 — is a client error: no probe, no record.
	getJSON(t, base, "/svc/status", http.StatusOK, &st)
	recordsBefore, probesBefore := st.Records, counter("svc.probe.done")
	for _, a := range []uint32{0, 1 << order} {
		var e map[string]string
		getJSON(t, base, "/resolver?ip="+lfsr.U32ToAddr(a).String(), http.StatusBadRequest, &e)
		if e["error"] == "" {
			t.Errorf("out-of-space %s refused without an error body", lfsr.U32ToAddr(a))
		}
	}
	getJSON(t, base, "/svc/status", http.StatusOK, &st)
	if st.Records != recordsBefore || counter("svc.probe.done") != probesBefore || counter("svc.lookup.rejected") != 2 {
		t.Errorf("out-of-space lookups left a trace: records %d→%d, probes %d→%d, rejected %d",
			recordsBefore, st.Records, probesBefore, counter("svc.probe.done"), counter("svc.lookup.rejected"))
	}

	// A concurrent burst on the second cold address costs one probe: each
	// request joins the probe in flight or, arriving after its answer, is
	// served the probe-born record, and all read the same.
	const fanout = 4
	answers := make([]resolvesvc.LookupResponse, fanout)
	errs := make([]error, fanout)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fetch(base, "/resolver?ip="+cold[1], http.StatusOK, &answers[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range answers[1:] {
		if a.Known != answers[0].Known || a.Open != answers[0].Open || a.FirstSeenEpoch != answers[0].FirstSeenEpoch {
			t.Errorf("burst on %s answered %+v and %+v", cold[1], answers[0], a)
		}
	}
	if n := counter("svc.probe.done") - probesBefore; n != 1 {
		t.Errorf("burst of %d on one cold address cost %d probes, want 1", fanout, n)
	}

	// The status agrees with the records the store lists.
	getJSON(t, base, "/svc/status", http.StatusOK, &st)
	getJSON(t, base, "/resolvers?limit=0", http.StatusOK, &all)
	if st.Epoch != epochs-1 || st.Records != len(all) {
		t.Errorf("status %+v disagrees with the %d listed records at epoch %d", st, len(all), epochs-1)
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err
		if err != nil {
			t.Errorf("wildsvc after SIGINT: %v\n%s", err, stderrText())
		}
	case <-time.After(30 * time.Second):
		t.Errorf("wildsvc ignored SIGINT:\n%s", stderrText())
	}
}
