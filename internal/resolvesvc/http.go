package resolvesvc

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/netip"
	"strconv"

	"goingwild/internal/debughttp"
	"goingwild/internal/lfsr"
)

// This file is the service's HTTP/JSON query API. The handlers are
// plain http.Handlers so cmd/wildsvc can mount them on the debughttp
// endpoint's mux (its Route seam) — the service itself never opens a
// socket; DESIGN.md's "no library code starts an HTTP server" rule
// stays intact.

// LookupResponse is /resolver's JSON shape.
type LookupResponse struct {
	IP       string `json:"ip"`
	Known    bool   `json:"known"`
	Open     bool   `json:"open"`
	RCode    string `json:"rcode,omitempty"`
	Answered bool   `json:"answered"`
	Country  string `json:"country,omitempty"`
	RIR      string `json:"rir,omitempty"`
	// FirstSeenEpoch/LastSeenEpoch are -1 for probe-born records no
	// sweep has observed.
	FirstSeenEpoch int `json:"first_seen_epoch"`
	LastSeenEpoch  int `json:"last_seen_epoch"`
	Flaps          int `json:"flaps"`
	// Epoch is the committed epoch the answer was served at; Source is
	// "store" or "probe".
	Epoch  int    `json:"epoch"`
	Source string `json:"source"`
}

// StatusResponse is /svc/status's JSON shape.
type StatusResponse struct {
	Epoch   int `json:"epoch"`
	Records int `json:"records"`
	Open    int `json:"open"`
	Pending int `json:"pending"`
}

func lookupResponse(res Result) LookupResponse {
	r := res.Record
	out := LookupResponse{
		IP:             lfsr.U32ToAddr(r.Addr).String(),
		Known:          true,
		Open:           r.Open,
		Answered:       r.Answered,
		Country:        r.Country,
		FirstSeenEpoch: r.FirstSeen,
		LastSeenEpoch:  r.LastSeen,
		Flaps:          r.Flaps,
		Epoch:          res.Epoch,
		Source:         res.Source,
	}
	if r.Open {
		out.RCode = r.RCode.String()
	}
	if r.Country != "" {
		out.RIR = r.RIR.String()
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// A failed response write means the client went away.
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// handleResolver answers GET /resolver?ip=A.B.C.D: 400 for anything
// that is not an IPv4 address inside the scanned space, 429 with
// Retry-After when the demand-probe queue is full, 503 when the probe
// itself failed or the service is stopping.
func (s *Service) handleResolver(w http.ResponseWriter, req *http.Request) {
	ipStr := req.URL.Query().Get("ip")
	if ipStr == "" {
		httpError(w, http.StatusBadRequest, "missing ip parameter")
		return
	}
	addr, err := netip.ParseAddr(ipStr)
	if err != nil || !addr.Is4() {
		httpError(w, http.StatusBadRequest, "ip must be a dotted-quad IPv4 address")
		return
	}
	res, err := s.Lookup(req.Context(), lfsr.AddrToU32(addr))
	switch {
	case errors.Is(err, ErrOutOfSpace):
		httpError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
	case err != nil:
		httpError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeJSON(w, http.StatusOK, lookupResponse(res))
	}
}

// handleResolvers answers GET /resolvers?limit=N&open=1 with the
// store's records sorted by address.
func (s *Service) handleResolvers(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	limit := 100
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	openOnly := q.Get("open") == "1"
	epoch := s.store.Epoch()
	recs := s.store.List(openOnly, limit)
	out := make([]LookupResponse, 0, len(recs))
	for _, r := range recs {
		out = append(out, lookupResponse(Result{Record: r, Epoch: epoch, Source: "store"}))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStatus answers GET /svc/status.
func (s *Service) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	pending := len(s.pending)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, StatusResponse{
		Epoch:   s.store.Epoch(),
		Records: s.store.Records(),
		Open:    s.store.OpenCount(),
		Pending: pending,
	})
}

// APIRoutes returns the query API as pattern/handler pairs for the
// caller to mount (cmd/wildsvc feeds them to debughttp.Serve).
func (s *Service) APIRoutes() []debughttp.Route {
	return []debughttp.Route{
		{Pattern: "/resolver", Handler: http.HandlerFunc(s.handleResolver)},
		{Pattern: "/resolvers", Handler: http.HandlerFunc(s.handleResolvers)},
		{Pattern: "/svc/status", Handler: http.HandlerFunc(s.handleStatus)},
	}
}
