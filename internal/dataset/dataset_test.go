package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"goingwild/internal/dnswire"
	"goingwild/internal/prefilter"
	"goingwild/internal/scanner"
)

// readTuples decodes a tuple stream strictly: every line must be one
// TupleRecord and nothing else, so a field the writer renamed or a torn
// line fails here rather than in a consumer of the published dataset.
func readTuples(r io.Reader) ([]TupleRecord, error) {
	var out []TupleRecord
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	for {
		var rec TupleRecord
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

func TestTuplesRoundTrip(t *testing.T) {
	scan := &scanner.DomainScanResult{
		Resolvers: []uint32{1000, 2000},
		Names:     []string{"chase.com"},
		Answers: [][]scanner.TupleAnswer{{
			{RCode: dnswire.RCodeNoError, Addrs: []uint32{100, 101}, Responses: 1},
			{}, // unanswered: skipped
		}},
	}
	pre := &prefilter.Result{Verdicts: [][]prefilter.Class{{prefilter.ClassLegit, prefilter.ClassUnanswered}}}
	var buf bytes.Buffer
	if err := WriteTuples(&buf, scan, pre); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Errorf("JSONL lines = %d, want 2", lines)
	}
	recs, err := readTuples(&buf)
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

// TestReadRejectsGarbage pins the tuple stream's shape from the reader's
// side: a line that is not one TupleRecord is an error, not a record.
func TestReadRejectsGarbage(t *testing.T) {
	for _, stream := range []string{
		"not json\n",
		`{"domain":"chase.com","resolver":"0.0.3.232","ip":"0.0.0.100","verdict":"legitimate"` + "\n",
		`{"domain":"chase.com","resolvr":"0.0.3.232","ip":"0.0.0.100","verdict":"legitimate"}` + "\n",
		`{"domain":"chase.com","resolver":1000,"ip":"0.0.0.100","verdict":"legitimate"}` + "\n",
	} {
		if got, err := readTuples(strings.NewReader(stream)); err == nil {
			t.Errorf("%q accepted as %+v", stream, got)
		}
	}
}

// TestEmptyStreams pins that a scan with no answered tuple exports an
// empty file, which reads back as no records.
func TestEmptyStreams(t *testing.T) {
	scan := &scanner.DomainScanResult{
		Resolvers: []uint32{1000},
		Names:     []string{"chase.com"},
		Answers:   [][]scanner.TupleAnswer{{{}}},
	}
	pre := &prefilter.Result{Verdicts: [][]prefilter.Class{{prefilter.ClassUnanswered}}}
	var buf bytes.Buffer
	if err := WriteTuples(&buf, scan, pre); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("unanswered scan wrote %q", buf.String())
	}
	recs, err := readTuples(&buf)
	if err != nil || len(recs) != 0 {
		t.Errorf("empty tuples: %v %v", recs, err)
	}
}

// TestArtifactRoundTrip writes a census artifact and decodes it strictly:
// every field comes back, the responders in dotted-quad form and sorted
// as the sweep had them, and a refused responder keeps its rcode and its
// mis-sourced answer address.
func TestArtifactRoundTrip(t *testing.T) {
	res := &scanner.SweepResult{Probed: 30, Responders: []scanner.Responder{
		{Addr: 5, Source: 5, RCode: dnswire.RCodeNoError, Answered: true},
		{Addr: 9, Source: 10, RCode: dnswire.RCodeRefused},
		{Addr: 0x01020304, Source: 0x01020304, RCode: dnswire.RCode(11)},
	}}
	a := FromSweep(16, 0x60176A11D, 0x5EED, 3, res)
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var got Artifact
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Errorf("round trip changed the artifact:\n got %+v\nwant %+v", got, a)
	}
	want := []Responder{
		{Addr: "0.0.0.5", Source: "0.0.0.5", RCode: 0, Answered: true},
		{Addr: "0.0.0.9", Source: "0.0.0.10", RCode: 5},
		{Addr: "1.2.3.4", Source: "1.2.3.4", RCode: 11},
	}
	if !reflect.DeepEqual(got.Responders, want) {
		t.Errorf("responders %+v, want %+v", got.Responders, want)
	}
}
