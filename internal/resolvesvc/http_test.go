package resolvesvc

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/geodb"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/scanner"
)

// newHTTPRig builds a service with a hand-populated store, an instant
// injected prober, and all API routes mounted on an httptest server —
// exactly how cmd/wildsvc mounts them on debughttp's mux.
func newHTTPRig(t testing.TB) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(Config{Order: 12}, Deps{
		Locator: testLoc,
		Metrics: metrics.New(),
	})
	svc.probeFn = func(_ context.Context, addr uint32) (Record, error) {
		return svc.store.RecordProbe(addr, svc.store.Epoch(), false, 0, false, testLoc), nil
	}
	startCoalescer(t, svc)

	if err := svc.store.ApplyEpoch(0, []scanner.ResponderDelta{
		add(5, dnswire.RCodeNoError),
		add(9, dnswire.RCodeRefused),
	}, testLoc); err != nil {
		t.Fatal(err)
	}
	if err := svc.store.ApplyEpoch(1, []scanner.ResponderDelta{remove(9)}, testLoc); err != nil {
		t.Fatal(err)
	}

	return svc, mountAPI(t, svc)
}

// mountAPI serves svc's routes from an httptest server.
func mountAPI(t testing.TB, svc *Service) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	for _, r := range svc.APIRoutes() {
		mux.Handle(r.Pattern, r.Handler)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func getStatus(t *testing.T, url string, want int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

func TestHTTPResolverKnownOpen(t *testing.T) {
	_, srv := newHTTPRig(t)
	ip := lfsr.U32ToAddr(5).String()
	var got LookupResponse
	getStatus(t, srv.URL+"/resolver?ip="+ip, http.StatusOK, &got)
	want := LookupResponse{
		IP: ip, Known: true, Open: true, RCode: "NOERROR", Answered: true,
		Country: "US", RIR: "ARIN",
		FirstSeenEpoch: 0, LastSeenEpoch: 0, Flaps: 0,
		Epoch: 1, Source: "store",
	}
	if got != want {
		t.Fatalf("GET /resolver = %+v, want %+v", got, want)
	}
}

func TestHTTPResolverClosedOmitsRCode(t *testing.T) {
	_, srv := newHTTPRig(t)
	var got LookupResponse
	getStatus(t, srv.URL+"/resolver?ip="+lfsr.U32ToAddr(9).String(), http.StatusOK, &got)
	if got.Open || got.RCode != "" {
		t.Fatalf("closed resolver response: %+v", got)
	}
	// LastSeen means last seen *open*: the epoch-1 removal stamps
	// Checked, not LastSeen.
	if got.FirstSeenEpoch != 0 || got.LastSeenEpoch != 0 {
		t.Fatalf("closed resolver seen range: %+v", got)
	}
}

func TestHTTPResolverMissProbes(t *testing.T) {
	_, srv := newHTTPRig(t)
	ip := lfsr.U32ToAddr(77).String()
	var got LookupResponse
	getStatus(t, srv.URL+"/resolver?ip="+ip, http.StatusOK, &got)
	if got.Source != "probe" || got.Open || got.FirstSeenEpoch != NeverSeen {
		t.Fatalf("miss response: %+v", got)
	}
}

func TestHTTPResolverBadRequests(t *testing.T) {
	_, srv := newHTTPRig(t)
	for _, q := range []string{"", "?ip=", "?ip=not-an-ip", "?ip=2001:db8::1"} {
		var e map[string]string
		getStatus(t, srv.URL+"/resolver"+q, http.StatusBadRequest, &e)
		if e["error"] == "" {
			t.Fatalf("bad request %q: no error field", q)
		}
	}
}

// TestHTTPResolverOutOfSpace: an IPv4 address that parses but lies
// outside the scanned space (order 12: 1 … 4095) is a 400, and leaves no
// record behind — a client walking 2^32 addresses must not grow the store.
func TestHTTPResolverOutOfSpace(t *testing.T) {
	svc, srv := newHTTPRig(t)
	records := svc.Store().Records()
	for _, ip := range []string{"200.1.2.3", "0.0.0.0", "0.0.16.0"} {
		var e map[string]string
		getStatus(t, srv.URL+"/resolver?ip="+ip, http.StatusBadRequest, &e)
		if e["error"] == "" {
			t.Fatalf("out-of-space %s: no error field", ip)
		}
	}
	var got LookupResponse
	getStatus(t, srv.URL+"/resolver?ip=0.0.15.255", http.StatusOK, &got)
	if got.Source != "probe" {
		t.Fatalf("last in-space address: %+v", got)
	}
	if n := svc.Store().Records(); n != records+1 {
		t.Fatalf("store went %d → %d records; only the in-space lookup may add one", records, n)
	}
}

// TestHTTPResolverOverloaded: with the demand-probe queue at its cap a
// miss is answered 429 with Retry-After, as JSON, while a store hit on
// the same listener is served as ever.
func TestHTTPResolverOverloaded(t *testing.T) {
	svc := New(Config{Order: 16}, Deps{Locator: testLoc, Metrics: metrics.New()})
	if err := svc.store.ApplyEpoch(0, []scanner.ResponderDelta{add(60000, dnswire.RCodeNoError)}, testLoc); err != nil {
		t.Fatal(err)
	}
	probes := newBlockedProbes(svc)
	startCoalescer(t, svc)
	parked := fillPending(t, svc, probes)
	srv := mountAPI(t, svc)

	resp, err := http.Get(srv.URL + "/resolver?ip=" + lfsr.U32ToAddr(maxPending+1).String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("429 body: %v", err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" ||
		resp.Header.Get("Content-Type") != "application/json" || e["error"] == "" {
		t.Fatalf("miss at the cap: status %d, Retry-After %q, Content-Type %q, body %v",
			resp.StatusCode, resp.Header.Get("Retry-After"), resp.Header.Get("Content-Type"), e)
	}
	var hit LookupResponse
	getStatus(t, srv.URL+"/resolver?ip="+lfsr.U32ToAddr(60000).String(), http.StatusOK, &hit)
	if hit.Source != "store" {
		t.Fatalf("store hit at the cap: %+v", hit)
	}
	var st StatusResponse
	getStatus(t, srv.URL+"/svc/status", http.StatusOK, &st)
	if st.Pending != maxPending {
		t.Fatalf("/svc/status pending = %d, want %d", st.Pending, maxPending)
	}
	close(probes.release)
	parked.Wait()
}

func TestHTTPResolversListAndFilters(t *testing.T) {
	_, srv := newHTTPRig(t)
	var all []LookupResponse
	getStatus(t, srv.URL+"/resolvers", http.StatusOK, &all)
	if len(all) != 2 {
		t.Fatalf("/resolvers returned %d records, want 2", len(all))
	}
	var open []LookupResponse
	getStatus(t, srv.URL+"/resolvers?open=1", http.StatusOK, &open)
	if len(open) != 1 || !open[0].Open {
		t.Fatalf("/resolvers?open=1 = %+v", open)
	}
	var limited []LookupResponse
	getStatus(t, srv.URL+"/resolvers?limit=1", http.StatusOK, &limited)
	if len(limited) != 1 {
		t.Fatalf("/resolvers?limit=1 returned %d records", len(limited))
	}
	getStatus(t, srv.URL+"/resolvers?limit=-2", http.StatusBadRequest, nil)
}

func TestHTTPStatus(t *testing.T) {
	svc, srv := newHTTPRig(t)
	var st StatusResponse
	getStatus(t, srv.URL+"/svc/status", http.StatusOK, &st)
	want := StatusResponse{
		Epoch:   svc.Store().Epoch(),
		Records: svc.Store().Records(),
		Open:    svc.Store().OpenCount(),
		Pending: 0,
	}
	if st != want {
		t.Fatalf("/svc/status = %+v, want %+v", st, want)
	}
	if st.Epoch != 1 || st.Records != 2 || st.Open != 1 {
		t.Fatalf("/svc/status values: %+v", st)
	}
}

// TestHTTPResolversBodyGolden pins the bytes a client reads for the three
// shapes a record takes — swept and open, flapped in out-of-registry
// space (no country, no RIR), probe-born and closed — to the body recorded
// when the stripes still held Record itself: the stored form is not
// visible through the API.
func TestHTTPResolversBodyGolden(t *testing.T) {
	loc := func(u uint32) (string, geodb.RIR) {
		switch u {
		case 9:
			return "", 0
		case 77:
			return "DE", geodb.RIPE
		}
		return "US", geodb.ARIN
	}
	svc := New(Config{Order: 12}, Deps{Locator: loc, Metrics: metrics.New()})
	for e, deltas := range [][]scanner.ResponderDelta{
		{add(5, dnswire.RCodeNoError), add(9, dnswire.RCodeRefused)},
		{remove(9)},
		{add(9, dnswire.RCodeServFail)},
	} {
		if err := svc.store.ApplyEpoch(e, deltas, loc); err != nil {
			t.Fatal(err)
		}
	}
	svc.store.RecordProbe(77, 2, false, 0, false, loc)
	rec := httptest.NewRecorder()
	svc.handleResolvers(rec, httptest.NewRequest("GET", "/resolvers?limit=0", nil))
	const want = `[
  {
    "ip": "0.0.0.5",
    "known": true,
    "open": true,
    "rcode": "NOERROR",
    "answered": true,
    "country": "US",
    "rir": "ARIN",
    "first_seen_epoch": 0,
    "last_seen_epoch": 0,
    "flaps": 0,
    "epoch": 2,
    "source": "store"
  },
  {
    "ip": "0.0.0.9",
    "known": true,
    "open": true,
    "rcode": "SERVFAIL",
    "answered": true,
    "first_seen_epoch": 0,
    "last_seen_epoch": 2,
    "flaps": 1,
    "epoch": 2,
    "source": "store"
  },
  {
    "ip": "0.0.0.77",
    "known": true,
    "open": false,
    "answered": false,
    "country": "DE",
    "rir": "RIPE",
    "first_seen_epoch": -1,
    "last_seen_epoch": -1,
    "flaps": 0,
    "epoch": 2,
    "source": "store"
  }
]
`
	if got := rec.Body.String(); got != want {
		t.Errorf("/resolvers body moved:\n%s\nwant:\n%s", got, want)
	}
}
