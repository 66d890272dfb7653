package shardio

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/scanner"
)

var prov = Provenance{Order: 16, Seed: 0x60176A11D, ScanSeed: 0x5EED, Week: 3}

func shardResult(addrs ...uint32) *scanner.SweepResult {
	res := &scanner.SweepResult{Probed: uint64(len(addrs)) * 10, ByRCode: map[dnswire.RCode]int{}}
	for _, a := range addrs {
		r := scanner.Responder{Addr: a, Source: a, RCode: dnswire.RCodeNoError, Answered: true}
		if a%3 == 0 {
			r.RCode = dnswire.RCodeRefused
			r.Answered = false
			r.Source = a + 1
		}
		res.Responders = append(res.Responders, r)
		res.ByRCode[r.RCode]++
	}
	return res
}

func TestArtifactRoundTrip(t *testing.T) {
	a := FromSweep(prov, 1, 4, shardResult(5, 9, 0x01020304))
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Errorf("round trip changed artifact:\n got %+v\nwant %+v", got, a)
	}
}

func TestMergeRebuildsSweep(t *testing.T) {
	// Interleaved addresses across three shards; the merged result must
	// come back sorted with the histogram and probed count rebuilt.
	arts := []Artifact{
		FromSweep(prov, 2, 3, shardResult(2, 300, 12)),
		FromSweep(prov, 0, 3, shardResult(7, 100)),
		FromSweep(prov, 1, 3, shardResult(1, 0xFFFFFFFF)),
	}
	res, p, err := Merge(arts)
	if err != nil {
		t.Fatal(err)
	}
	if p != prov {
		t.Errorf("provenance %+v, want %+v", p, prov)
	}
	if res.Probed != 70 {
		t.Errorf("probed %d, want 70", res.Probed)
	}
	want := []uint32{1, 2, 7, 12, 100, 300, 0xFFFFFFFF}
	if len(res.Responders) != len(want) {
		t.Fatalf("merged %d responders, want %d", len(res.Responders), len(want))
	}
	for i, r := range res.Responders {
		if r.Addr != want[i] {
			t.Errorf("responder %d is %d, want %d (sorted)", i, r.Addr, want[i])
		}
	}
	if res.ByRCode[dnswire.RCodeRefused] != 3 || res.ByRCode[dnswire.RCodeNoError] != 4 {
		t.Errorf("histogram %v", res.ByRCode)
	}
}

func TestMergeRejectsIncoherentSets(t *testing.T) {
	ok := func(i int) Artifact { return FromSweep(prov, i, 2, shardResult(uint32(i+1))) }
	cases := []struct {
		name string
		arts []Artifact
		want string
	}{
		{"empty", nil, "no artifacts"},
		{"missing shard", []Artifact{ok(0)}, "got 1 artifacts"},
		{"duplicate shard", []Artifact{ok(0), ok(0)}, "supplied twice"},
		{"mixed provenance", []Artifact{ok(0), FromSweep(Provenance{Order: 18, Seed: prov.Seed, ScanSeed: prov.ScanSeed, Week: prov.Week}, 1, 2, shardResult(2))}, "different scan"},
		{"duplicate target", []Artifact{ok(0), FromSweep(prov, 1, 2, shardResult(1))}, "two shards"},
	}
	for _, tc := range cases {
		if _, _, err := Merge(tc.arts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestMergeRejectsMalformedAddress corrupts one address of a written
// artifact: the document still decodes, so Merge is what must refuse it
// rather than fold a prefix of the bytes into the census.
func TestMergeRejectsMalformedAddress(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, FromSweep(prov, 0, 1, shardResult(0x0A000001))); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"10.0.0.1junk", "10.0.0.1.5", "999.0.0.1", "::ffff:10.0.0.1"} {
		doc := strings.Replace(buf.String(), `"addr": "10.0.0.1"`, `"addr": "`+bad+`"`, 1)
		a, err := Read(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: artifact no longer decodes: %v", bad, err)
		}
		if _, _, err := Merge([]Artifact{a}); err == nil || !strings.Contains(err.Error(), "bad address") {
			t.Errorf("address %q merged: err = %v", bad, err)
		}
	}
}

func TestReadRejectsBadShardRange(t *testing.T) {
	a := FromSweep(prov, 0, 1, shardResult(1))
	a.Shard, a.Of = 4, 4
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Error("artifact with shard == of accepted")
	}
}

func TestFileRoundTripAndRenderStability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s0.json")
	a := FromSweep(prov, 0, 1, shardResult(3, 4, 5))
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Errorf("file round trip changed artifact")
	}
	res, _, err := Merge([]Artifact{got})
	if err != nil {
		t.Fatal(err)
	}
	// The census render must not leak shard structure: a 1/1 merge and
	// the original result render identically.
	if RenderCensus(res) != RenderCensus(shardResult(3, 4, 5)) {
		t.Errorf("render differs between merged and direct result:\n%s\nvs\n%s",
			RenderCensus(res), RenderCensus(shardResult(3, 4, 5)))
	}
	if strings.Contains(RenderCensus(res), "shard") {
		t.Error("census render mentions shards")
	}
}

// TestReadDiagnosesTruncation pins the corrupt-artifact contract: every
// strict prefix of a valid artifact fails with ErrCorrupt (never a
// silent partial decode, never a panic), and mid-file truncations name
// the byte offset so the operator knows the copy — not the scan — is
// broken.
func TestReadDiagnosesTruncation(t *testing.T) {
	a := FromSweep(prov, 0, 2, shardResult(5, 9, 12, 0x01020304))
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 0; cut < len(whole)-1; cut++ {
		_, err := Read(bytes.NewReader(whole[:cut]))
		if err == nil {
			t.Fatalf("truncation at byte %d/%d decoded cleanly", cut, len(whole))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at byte %d: error %v does not wrap ErrCorrupt", cut, err)
		}
		if cut > 0 && !strings.Contains(err.Error(), "byte") {
			t.Fatalf("truncation at byte %d: diagnostic %q names no offset", cut, err)
		}
	}
}

// TestReadDiagnosesGarbage covers non-truncation corruption: a flipped
// byte that breaks JSON syntax, and a type-level mismatch, both with
// offsets and ErrCorrupt.
func TestReadDiagnosesGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"order": 16, "of": }`)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "byte") {
		t.Errorf("syntax corruption: %v", err)
	}
	if _, err := Read(strings.NewReader(`{"order": "sixteen", "shard": 0, "of": 1}`)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("type corruption: %v", err)
	}
}
