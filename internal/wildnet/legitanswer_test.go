package wildnet

import (
	"bytes"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/domains"
	"goingwild/internal/geodb"
	"goingwild/internal/prand"
)

// regionCountries returns one country code per CDN region.
func regionCountries(t *testing.T) [cdnRegions]string {
	t.Helper()
	var out [cdnRegions]string
	found := 0
	for _, c := range geodb.Countries {
		if r := RegionOf(c.Code); out[r] == "" {
			out[r] = c.Code
			found++
		}
	}
	if found != cdnRegions {
		t.Fatalf("countries cover %d of %d CDN regions", found, cdnRegions)
	}
	return out
}

// casedQuery is an A query for name with each letter of the question
// upper-cased when its bit of salt's hash is set; salt 0 leaves it as is.
func casedQuery(t *testing.T, name string, salt uint64) []byte {
	t.Helper()
	q, err := dnswire.AppendQuery(nil, uint16(salt), true, name, dnswire.TypeA, dnswire.ClassIN)
	if err != nil {
		t.Fatalf("query %q: %v", name, err)
	}
	if salt != 0 {
		for i, c := range dnswire.QueryNameWire(q) {
			if 'a' <= c && c <= 'z' && prand.Hash(salt, uint64(i))&1 != 0 {
				dnswire.QueryNameWire(q)[i] = c - ('a' - 'A')
			}
		}
	}
	return q
}

// TestLegitAnswerMatchesLive: for every scan-list name, from every CDN
// region, behind the name in lower case and in three random 0x20
// casings, the canned honest answer appended behind Begin is the
// response the live path — legitAddrs, addA per address, signAnswer —
// writes, byte for byte, and carries legitAddrs' rcode.
func TestLegitAnswerMatchesLive(t *testing.T) {
	w := testWorld(t, 16)
	countries := regionCountries(t)
	var canned, live exchange
	for li, d := range domains.List {
		for r, cc := range countries {
			p := Profile{Country: cc}
			for _, salt := range []uint64{0, 0x20 + uint64(li), 0x2020 + uint64(r), 0x202020 + uint64(li*r)} {
				q := casedQuery(t, d.Name, salt)
				if !canned.accept(q) || !live.accept(q) {
					t.Fatalf("%q: query not accepted", d.Name)
				}
				cn, dd, i, _ := canned.qname()
				if i != li || cn != d.Name || dd != d {
					t.Fatalf("%q: qname gives (%q, %d), want list entry %d", d.Name, cn, i, li)
				}
				la := w.legitAnswer(li, d, &p)
				canned.begin(cn, dnswire.RCodeNoError)
				canned.rb.AppendCanned(&la.recs, answerTTL)
				canned.emit(0, 0, 0)

				addrs, rc := w.legitAddrs(live.addrs[:0], cn, d, true, cc)
				live.begin(cn, dnswire.RCodeNoError)
				for _, a := range addrs {
					w.addA(&live, a)
				}
				w.signAnswer(&live, cn, true, addrs)
				live.emit(0, 0, 0)

				got, want := canned.wire(canned.resps[0]), live.wire(live.resps[0])
				if len(want) == 0 || !bytes.Equal(got, want) || la.rcode != rc {
					t.Fatalf("%q from %s, query %x:\n  canned %x rcode %v\n  live   %x rcode %v", d.Name, cc, q, got, la.rcode, want, rc)
				}
			}
		}
	}
}

// TestProfileCarriesCountryIndex: a profile from ProfileAt, derived or
// out of the memo, carries its country's index, so the per-probe policy
// lookups read the index the country-keyed map would give.
func TestProfileCarriesCountryIndex(t *testing.T) {
	w := testWorld(t, 16)
	seen := 0
	for u := uint32(0); u < uint32(w.SpaceSize()); u++ {
		for pass := 0; pass < 2; pass++ { // derived, then a memo hit
			p, ok := w.ProfileAt(u, At(3))
			if !ok {
				break
			}
			if p.cc == 0 || p.countryIdx() != countryIdxOf(p.Country) {
				t.Fatalf("%#x pass %d: country %q carries index %d, want %d", u, pass, p.Country, p.cc-1, countryIdxOf(p.Country))
			}
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("no resolver in the world")
	}
}
