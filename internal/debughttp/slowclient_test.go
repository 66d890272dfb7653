package debughttp_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"goingwild/internal/debughttp"
	"goingwild/internal/geodb"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/resolvesvc"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// TestSlowClientBlocksOnlyItself mounts the query API on Serve the way
// cmd/wildsvc does and points a client at /resolvers?limit=0 that never
// reads its body. The handler parks in a socket write (WriteTimeout is
// zero on purpose), and it must park alone: the status and lookup
// endpoints keep answering and the epoch loop keeps committing. Once the
// client hangs up, stop drains within the shutdown timeout.
func TestSlowClientBlocksOnlyItself(t *testing.T) {
	const order, epochs = 16, 3
	w, err := wildnet.NewWorld(wildnet.DefaultConfig(order))
	if err != nil {
		t.Fatal(err)
	}
	sweepTr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	probeTr := wildnet.NewMemTransport(w, wildnet.VantagePrimary)
	defer sweepTr.Close()
	defer probeTr.Close()
	loc := func(u uint32) (string, geodb.RIR) {
		l := w.Geo().LookupU32(u)
		return l.Country, l.RIR
	}
	opts := scanner.Options{Workers: 2, SettleDelay: scanner.NoSettle}
	svc := resolvesvc.New(
		resolvesvc.Config{Order: order, ScanSeed: 0x5EED, Epochs: epochs, Blacklist: w.ScanBlacklist()},
		resolvesvc.Deps{Scanner: scanner.New(sweepTr, opts), SweepClock: sweepTr,
			Prober: scanner.New(probeTr, opts), ProbeClock: probeTr, Locator: loc})

	// Half the space as probe-born records makes a ≈ 7 MB /resolvers body,
	// far more than the two socket buffers between handler and client
	// hold, so the handler cannot finish while the client is not reading.
	const seeded = 1 << (order - 1)
	for a := uint32(1); a <= seeded; a++ {
		svc.Store().RecordProbe(a, 0, false, 0, false, loc)
	}

	entered, returned := make(chan struct{}), make(chan struct{})
	routes := svc.APIRoutes()
	for i, r := range routes {
		if r.Pattern == "/resolvers" {
			routes[i].Handler = http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
				close(entered)
				defer close(returned)
				r.Handler.ServeHTTP(rw, req)
			})
		}
	}
	addr, stop, err := debughttp.Serve("127.0.0.1:0", metrics.New(), routes...)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET /resolvers?limit=0 HTTP/1.1\r\nHost: wildsvc\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	<-entered

	// The epoch loop runs to completion beside the parked handler.
	before := svc.Store().Epoch()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- svc.Run(ctx) }()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run beside a parked handler: %v", err)
		}
	case <-time.After(debughttp.ShutdownTimeout):
		t.Fatal("the epoch loop stalled beside a parked handler")
	}
	if got := svc.Store().Epoch(); got != epochs-1 || got == before {
		t.Fatalf("store epoch %d → %d, want it to reach %d", before, got, epochs-1)
	}

	base := "http://" + addr
	var st resolvesvc.StatusResponse
	getJSON(t, base+"/svc/status", &st)
	if st.Epoch != epochs-1 || st.Records < seeded {
		t.Fatalf("/svc/status beside a parked handler: %+v", st)
	}
	var lr resolvesvc.LookupResponse
	getJSON(t, base+"/resolver?ip="+lfsr.U32ToAddr(seeded+1).String(), &lr)
	if !lr.Known {
		t.Fatalf("/resolver beside a parked handler: %+v", lr)
	}

	select {
	case <-returned:
		t.Fatal("the /resolvers handler finished without a reader; the body no longer outgrows the socket buffers")
	default:
	}

	conn.Close()
	select {
	case <-returned:
	case <-time.After(debughttp.ShutdownTimeout):
		t.Fatal("the /resolvers handler is still writing after its client hung up")
	}
	start := time.Now()
	if err := stop(); err != nil {
		t.Fatalf("stop after the slow client hung up: %v", err)
	}
	if d := time.Since(start); d >= debughttp.ShutdownTimeout {
		t.Fatalf("stop took %v, want under debughttp.ShutdownTimeout (%v)", d, debughttp.ShutdownTimeout)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := (&http.Client{Timeout: debughttp.ShutdownTimeout}).Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
