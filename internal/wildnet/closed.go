package wildnet

import (
	"goingwild/internal/dnswire"
	"goingwild/internal/prand"
)

// Closed resolvers (§2.1): DNS servers that answer only clients from a
// trusted address range — invisible to Internet-wide scans, but §5 notes
// "there is no reason to assume that closed resolvers do not likewise
// manipulate resolutions", and §6 points at Netalyzr-style in-network
// measurements as the way to see them. Every network block of the world
// operates one closed ISP resolver serving its own range.

// ClosedResolverOf returns the address of the closed resolver serving a
// client address: the ISP resolver at the base of the client's network
// block.
func (w *World) ClosedResolverOf(client uint32) uint32 {
	client = w.Mask(client)
	block := uint32(w.geo.BlockOf(client))
	blockBits := w.cfg.Order - blockCountBits(w.cfg.Order)
	return w.Mask(block<<blockBits | 2)
}

// blockCountBits mirrors the geodb block layout.
func blockCountBits(order uint) uint {
	if order < 16 {
		return order - 4
	}
	return 12
}

// closedProfile derives the behavior of a closed resolver: the same
// distribution as the open population minus the classes that require
// openness, so the in-network study observes comparable manipulation
// (notably NXDOMAIN monetization, Weaver et al.'s focus).
func (w *World) closedProfile(resolver uint32) Profile {
	id := prand.Hash(w.cfg.Seed, 0xC105ED, uint64(resolver))
	loc := w.geo.LookupU32(resolver)
	p := Profile{Identity: id, Country: loc.Country, RCode: RCNoError,
		SoftwareIdx: -1, HiddenIdx: -1, DeviceIdx: -1}
	p.Manip = drawManip(id)
	if loc.Country == "CN" {
		p.GFWDouble = prand.UnitOf(id, facetGFWDouble) < 0.024
	}
	return p
}

// HandleClientDNS processes a query a *client inside the network* sends
// to its ISP's closed resolver. Queries from outside the resolver's
// block are refused — which is what makes the resolver closed.
func (w *World) HandleClientDNS(client uint32, q *dnswire.Message, t Time) []QueryResponse {
	return decoded(q, func(x *exchange, payload []byte) []QueryResponse {
		return w.handleClientDNS(x, client, payload, t)
	})
}

// handleClientDNS is the wire handler under HandleClientDNS.
func (w *World) handleClientDNS(x *exchange, client uint32, payload []byte, t Time) []QueryResponse {
	if !x.accept(payload) {
		return nil
	}
	client = w.Mask(client)
	resolver := w.ClosedResolverOf(client)
	qname, d, listed, _ := x.qname()
	if w.geo.BlockOf(client) != w.geo.BlockOf(resolver) {
		x.begin(qname, dnswire.RCodeRefused)
		return x.emit(resolver, 53, 0)
	}
	p := w.closedProfile(resolver)
	if x.q.QType() != dnswire.TypeA {
		x.begin(qname, dnswire.RCodeNotImp)
		return x.emit(resolver, 53, 0)
	}
	return w.answerA(x, &p, qname, d, listed, resolver, resolver, 53, 3, t)
}
