package dataset

import (
	"bytes"
	"strings"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/prefilter"
	"goingwild/internal/scanner"
)

func TestManifestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	m := Manifest{Paper: "IMC 2015", Order: 18, Seed: 42, ScanSeed: 7, Week: 50, Generator: "goingwild"}
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Errorf("manifest round trip: %+v vs %+v", got, m)
	}
}

func TestSweepRoundTrip(t *testing.T) {
	res := &scanner.SweepResult{Responders: []scanner.Responder{
		{Addr: 0x01020304, Source: 0x01020304, RCode: dnswire.RCodeNoError, Answered: true},
		{Addr: 0x0A0B0C0D, Source: 0x0A0B0CFF, RCode: dnswire.RCodeRefused},
		{Addr: 0xFFFFFFFE, Source: 0xFFFFFFFE, RCode: dnswire.RCodeServFail},
	}}
	var buf bytes.Buffer
	if err := WriteSweep(&buf, res); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Errorf("JSONL lines = %d", lines)
	}
	got, err := ReadSweep(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("records = %d", len(got))
	}
	for i, r := range got {
		if r != res.Responders[i] {
			t.Errorf("record %d: %+v vs %+v", i, r, res.Responders[i])
		}
	}
}

func TestTuplesRoundTrip(t *testing.T) {
	scan := &scanner.DomainScanResult{
		Resolvers: []uint32{1000, 2000},
		Names:     []string{"chase.com"},
		Answers: [][]scanner.TupleAnswer{{
			{ResolverIdx: 0, RCode: dnswire.RCodeNoError, Addrs: []uint32{100, 101}, Responses: 1},
			{ResolverIdx: 1}, // unanswered: skipped
		}},
	}
	pre := &prefilter.Result{Verdicts: [][]prefilter.Class{{prefilter.ClassLegit, prefilter.ClassUnanswered}}}
	var buf bytes.Buffer
	if err := WriteTuples(&buf, scan, pre); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTuples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (one per answer address)", len(recs))
	}
	if recs[0].Domain != "chase.com" || recs[0].Resolver != "0.0.3.232" || recs[0].Verdict != "legitimate" {
		t.Errorf("record = %+v", recs[0])
	}
	if recs[1].IP != "0.0.0.101" {
		t.Errorf("second address = %+v", recs[1])
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadSweep(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
	for _, rec := range []string{
		`{"addr":"999.1.2.3","source":"1.2.3.4","rcode":"NOERROR"}`,
		`{"addr":"1.2.3.4junk","source":"1.2.3.4","rcode":"NOERROR"}`,
		`{"addr":"1.2.3.4.5","source":"1.2.3.4","rcode":"NOERROR"}`,
		`{"addr":"1.2.3.4","source":"::1","rcode":"NOERROR"}`,
		`{"addr":"1.2.3.4","source":"1.2.3.4","rcode":"NOTACODE"}`,
	} {
		if got, err := ReadSweep(strings.NewReader(rec)); err == nil {
			t.Errorf("%s accepted as %+v", rec, got)
		}
	}
}

func TestEmptyStreams(t *testing.T) {
	got, err := ReadSweep(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Errorf("empty sweep: %v %v", got, err)
	}
	recs, err := ReadTuples(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Errorf("empty tuples: %v %v", recs, err)
	}
}
