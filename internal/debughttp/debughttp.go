// Package debughttp serves the opt-in operator debug endpoint: expvar,
// pprof, and the metrics registry in both Prometheus text and JSON
// form. Only the cmd entrypoints wire it (behind -debug-addr, and as
// the HTTP seam cmd/wildsvc mounts its query API on); no library code
// starts, or even imports, an HTTP server — observability stays a side
// channel the measurement stack cannot depend on.
package debughttp

import (
	"context"
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"goingwild/internal/metrics"
)

// Route is an extra handler mounted on the debug mux — the seam a
// long-running service (cmd/wildsvc) uses to serve its query API on
// the same listener as the operator endpoints.
type Route struct {
	Pattern string
	Handler http.Handler
}

// shutdownTimeout bounds the graceful drain Serve's stop function
// performs: in-flight requests get this long to finish before the
// server is torn down hard.
const shutdownTimeout = 5 * time.Second

// Serve starts the debug endpoint on addr (e.g. "localhost:6060"; a
// ":0" port picks a free one) and returns the bound address plus a stop
// function. Routes:
//
//	/metrics       — Prometheus text exposition of the registry
//	/metrics.json  — the same snapshot as indented JSON
//	/debug/vars    — expvar: the Go runtime's own vars (cmdline, memstats)
//	/debug/pprof/  — the standard pprof handlers
//
// plus any extra routes the caller mounts. The server is hardened for
// long-running use: ReadHeaderTimeout and IdleTimeout bound what a
// slow or idle client can hold open (ReadTimeout/WriteTimeout stay
// zero on purpose — /debug/pprof/profile?seconds=30 streams for as
// long as the client asked). The stop function drains in-flight
// requests gracefully for up to shutdownTimeout, then closes hard,
// and reports the first error the server hit — a failed Serve loop or
// a failed shutdown — instead of dropping it.
func Serve(addr string, reg *metrics.Registry, extra ...Route) (string, func() error, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.Snapshot().WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, r := range extra {
		mux.Handle(r.Pattern, r.Handler)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- srv.Serve(ln)
	}()
	stop := func() error {
		//lint:allow ctxhygiene shutdown outlives every caller context; the drain deadline is the only bound
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		shutErr := srv.Shutdown(ctx)
		if shutErr != nil {
			// The drain deadline passed (or the context died): tear the
			// server down hard so stop never leaks the listener.
			// Shutdown already reported the failure; Close is the
			// best-effort fallback.
			srv.Close()
		}
		// Serve returns ErrServerClosed on a clean Shutdown/Close; any
		// other error (a listener failure mid-run) is surfaced.
		err := <-serveErr
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		if err != nil {
			return err
		}
		return shutErr
	}
	return ln.Addr().String(), stop, nil
}
