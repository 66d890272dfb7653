package resolvesvc

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"testing"

	"goingwild/internal/lfsr"
)

// fuzzQuery drives one raw query string at path through the real mux of
// an order-12 service and checks what no input may break: the answer is
// 200, 400, 429 or 503 with a JSON body; a 400 sent no probe and stored
// nothing; and whatever was stored lies inside the scanned space
// (1 … 4095). A panic in a handler fails the target by itself.
func fuzzQuery(f *testing.F, path string) {
	svc, srv := newHTTPRig(f)
	api := srv.Config.Handler
	f.Fuzz(func(t *testing.T, rawQuery string) {
		records, probes := svc.Store().Records(), svc.m.probes.Value()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("%s?%s: status %d", path, rawQuery, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s?%s: content type %q", path, rawQuery, ct)
		}
		var body any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s?%s: body %q is not JSON: %v", path, rawQuery, rec.Body.Bytes(), err)
		}
		grew := svc.Store().Records() - records
		if rec.Code == http.StatusBadRequest && (grew != 0 || svc.m.probes.Value() != probes) {
			t.Fatalf("%s?%s: a 400 sent %d probes and stored %d records",
				path, rawQuery, svc.m.probes.Value()-probes, grew)
		}
		if grew == 0 {
			return
		}
		// Only a /resolver miss stores, and only the address it answers for.
		var got LookupResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || grew != 1 || rec.Code != http.StatusOK {
			t.Fatalf("%s?%s: stored %d records behind status %d, body %q", path, rawQuery, grew, rec.Code, rec.Body.Bytes())
		}
		addr, err := netip.ParseAddr(got.IP)
		if err != nil || !addr.Is4() || lfsr.AddrToU32(addr) == 0 || lfsr.AddrToU32(addr) >= 1<<12 {
			t.Fatalf("%s?%s: stored a record for %q, outside 1 … 4095", path, rawQuery, got.IP)
		}
	})
}

// FuzzResolverQuery hardens GET /resolver's query parsing.
func FuzzResolverQuery(f *testing.F) {
	// The bad requests of TestHTTPResolverBadRequests and the edges of
	// TestHTTPResolverOutOfSpace, then a hit, a miss and some noise.
	for _, q := range []string{
		"", "ip=", "ip=not-an-ip", "ip=2001:db8::1",
		"ip=200.1.2.3", "ip=0.0.0.0", "ip=0.0.16.0", "ip=0.0.15.255",
		"ip=0.0.0.5", "ip=0.0.0.77", "ip=0.0.0.5&ip=0.0.0.9", "ip=%30.0.0.7", "ip=0.0.0.7%", "ip=1.2.3.4;x", "ip=::ffff:0.0.0.5",
	} {
		f.Add(q)
	}
	fuzzQuery(f, "/resolver")
}

// FuzzResolversQuery hardens GET /resolvers' query parsing.
func FuzzResolversQuery(f *testing.F) {
	for _, q := range []string{
		"", "limit=0", "limit=1", "limit=-1", "limit=x", "limit=99999999999999999999",
		"open=1", "open=1&limit=1", "open=yes", "limit=%31", "limit=1%", "limit=+1", "limit=1&limit=x",
	} {
		f.Add(q)
	}
	fuzzQuery(f, "/resolvers")
}
