package debughttp

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"goingwild/internal/metrics"
)

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestServeRoutes(t *testing.T) {
	reg := metrics.New()
	reg.Counter("scanner.sweep.sent").Add(42)

	addr, stop, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()
	base := "http://" + addr

	if body := get(t, base+"/metrics"); !strings.Contains(body, "scanner_sweep_sent 42") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get(t, base+"/metrics.json"); !strings.Contains(body, `"scanner.sweep.sent"`) {
		t.Errorf("/metrics.json missing counter:\n%s", body)
	}
	if body := get(t, base+"/debug/vars"); !strings.Contains(body, `"memstats"`) {
		t.Errorf("/debug/vars missing the runtime's memstats var:\n%s", body)
	}
	if body := get(t, base+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%s", body)
	}

	// The endpoint is live: a counter bumped after Serve shows up in the
	// next scrape.
	reg.Counter("scanner.sweep.sent").Add(8)
	if body := get(t, base+"/metrics"); !strings.Contains(body, "scanner_sweep_sent 50") {
		t.Errorf("/metrics not live:\n%s", body)
	}
}

// TestServeExtraRoutes proves the Route seam a service mounts its query
// API on.
func TestServeExtraRoutes(t *testing.T) {
	reg := metrics.New()
	addr, stop, err := Serve("127.0.0.1:0", reg, Route{
		Pattern: "/hello",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, "svc-route-ok")
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()
	if body := get(t, "http://"+addr+"/hello"); body != "svc-route-ok" {
		t.Errorf("extra route body = %q", body)
	}
	// The built-in routes still serve alongside the extras.
	if body := get(t, "http://"+addr+"/metrics.json"); !strings.Contains(body, "{") {
		t.Errorf("/metrics.json broken with extra routes:\n%s", body)
	}
}

// TestServeTimeoutsConfigured asserts the long-running hardening is in
// place: stop is graceful (in-flight request finishes) and idempotent
// resources are released (the address becomes bindable again).
func TestServeStopReleasesListener(t *testing.T) {
	reg := metrics.New()
	addr, stop, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	// The port is free again: a fresh Serve can bind the exact address.
	_, stop2, err := Serve(addr, reg)
	if err != nil {
		t.Fatalf("rebind %s after stop: %v", addr, err)
	}
	if err := stop2(); err != nil {
		t.Errorf("stop2: %v", err)
	}
}
