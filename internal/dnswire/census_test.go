package dnswire

import (
	"bytes"
	"testing"

	"goingwild/internal/domains"
)

// TestTemplateBuildMatchesAppend pins the contract CensusQuery's doc
// comment promises: the template-patched probe is byte-for-byte what
// AppendTargetQuery produces for the same target and attempt.
func TestTemplateBuildMatchesAppend(t *testing.T) {
	base := CanonicalName(domains.ScanBase)
	baseWire, err := EncodeNameWire(base)
	if err != nil {
		t.Fatal(err)
	}
	targets := []uint32{1, 2, 0xFF, 0x1234, 0xDEADBEEF, 0xFFFFFFFF, 0x01020304, 0x80000000}
	for u := uint32(3); u < 1<<20; u += 99991 { // sparse walk of the low space
		targets = append(targets, u)
	}
	for attempt := 0; attempt <= 3; attempt++ {
		tmpl := NewCensusQuery(baseWire, attempt)
		var arena []byte
		offs := []int{0}
		for _, u := range targets {
			arena = tmpl.Append(arena, u)
			offs = append(offs, len(arena))
		}
		for i, u := range targets {
			got := arena[offs[i]:offs[i+1]]
			prefix := censusPrefix(u, attempt)
			want := AppendTargetQuery(nil, uint16(u)^uint16(u>>16),
				prefix[:], u, baseWire, TypeA, ClassIN)
			if !bytes.Equal(got, want) {
				t.Fatalf("attempt %d target %08x: template diverges from AppendTargetQuery:\n got %x\nwant %x",
					attempt, u, got, want)
			}
		}
	}
}

// TestCensusQueryShape: QType and NameLen, which a transport reads in
// place of every probe's question, are what a View reads from each
// instance, for the scan base and for a one-label and an empty base.
func TestCensusQueryShape(t *testing.T) {
	for _, base := range []string{CanonicalName(domains.ScanBase), "edu", ""} {
		baseWire, err := EncodeNameWire(base)
		if err != nil {
			t.Fatal(err)
		}
		tmpl := NewCensusQuery(baseWire, 1)
		for _, u := range []uint32{0, 7, 0xC0A80101, 0xFFFFFFFF} {
			var v View
			if err := v.Reset(tmpl.Append(nil, u)); err != nil {
				t.Fatal(err)
			}
			if v.QType() != tmpl.QType() || len(v.QName()) != tmpl.NameLen() {
				t.Fatalf("base %q target %08x: view reads %v %q, template says %v and %d bytes",
					base, u, v.QType(), v.QName(), tmpl.QType(), tmpl.NameLen())
			}
		}
	}
}
