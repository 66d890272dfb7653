package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"goingwild/internal/htmlx"
)

func TestEditDistanceTokens(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{nil, nil, 0},
		{[]string{"a"}, nil, 1},
		{[]string{"a", "b", "c"}, []string{"a", "b", "c"}, 0},
		{[]string{"a", "b", "c"}, []string{"a", "x", "c"}, 1.0 / 3},
		{[]string{"a"}, []string{"a", "b"}, 0.5},
	}
	for _, c := range cases {
		if got := EditDistanceTokens(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("EditDistanceTokens(%v, %v) = %f, want %f", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceStringSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		d1 := EditDistanceString(a, b)
		d2 := EditDistanceString(b, a)
		return d1 == d2 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestJaccardMultiset(t *testing.T) {
	a := map[string]int{"div": 2, "img": 1}
	b := map[string]int{"div": 1, "a": 1}
	// inter = min(2,1)=1; union = max(2,1)+1+1 = 4 → distance 0.75.
	if got := JaccardMultiset(a, b); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("JaccardMultiset = %f, want 0.75", got)
	}
	if got := JaccardMultiset(a, a); got != 0 {
		t.Errorf("self distance = %f", got)
	}
	if got := JaccardMultiset(nil, nil); got != 0 {
		t.Errorf("empty distance = %f", got)
	}
	if got := JaccardMultiset(a, nil); got != 1 {
		t.Errorf("disjoint distance = %f", got)
	}
}

func TestJaccardSetIgnoresDuplicates(t *testing.T) {
	if got := JaccardSet([]string{"x", "x", "y"}, []string{"y", "x"}); got != 0 {
		t.Errorf("set distance = %f, want 0", got)
	}
}

func TestFeatureDistanceIdentityAndRange(t *testing.T) {
	fa := htmlx.Extract(`<html><title>A</title><img src="/a"><a href="/x">x</a><script>var a=1;</script></html>`)
	if d := FeatureDistance(fa, fa); d != 0 {
		t.Errorf("self distance = %f", d)
	}
	fb := htmlx.Extract(`<svg><circle r="1"/></svg>`)
	d := FeatureDistance(fa, fb)
	if d <= 0.3 || d > 1 {
		t.Errorf("dissimilar pages distance = %f", d)
	}
}

func TestFeatureDistanceMetricProperties(t *testing.T) {
	pages := []string{
		`<html><title>one</title><div><p>text</p></div></html>`,
		`<html><title>two</title><div><p>text</p><img src="/i"></div></html>`,
		`<html><title>three</title><table><tr><td>x</td></tr></table></html>`,
	}
	var fs []*htmlx.Features
	for _, p := range pages {
		fs = append(fs, htmlx.Extract(p))
	}
	for i := range fs {
		for j := range fs {
			dij := FeatureDistance(fs[i], fs[j])
			dji := FeatureDistance(fs[j], fs[i])
			if dij != dji {
				t.Errorf("asymmetric: d(%d,%d)=%f d(%d,%d)=%f", i, j, dij, j, i, dji)
			}
			if dij < 0 || dij > 1 {
				t.Errorf("out of range: %f", dij)
			}
		}
	}
}

func TestAgglomerateSeparatesTwoFamilies(t *testing.T) {
	// Items 0-4 near each other, 5-9 near each other, far across.
	dist := func(i, j int) float64 {
		if (i < 5) == (j < 5) {
			return 0.05
		}
		return 0.9
	}
	r := Agglomerate(10, dist, 0.4)
	if r.Num != 2 {
		t.Fatalf("clusters = %d, want 2", r.Num)
	}
	for i := 1; i < 5; i++ {
		if r.Assign[i] != r.Assign[0] {
			t.Errorf("item %d not with family A", i)
		}
	}
	for i := 6; i < 10; i++ {
		if r.Assign[i] != r.Assign[5] {
			t.Errorf("item %d not with family B", i)
		}
	}
	if r.Assign[0] == r.Assign[5] {
		t.Error("families merged")
	}
	if len(r.Merges) != 8 {
		t.Errorf("merges = %d, want 8", len(r.Merges))
	}
}

func TestAgglomerateSingletonAndEmpty(t *testing.T) {
	r := Agglomerate(0, nil, 0.5)
	if r.Num != 0 || len(r.Assign) != 0 {
		t.Errorf("empty clustering = %+v", r)
	}
	r = Agglomerate(1, func(i, j int) float64 { return 0 }, 0.5)
	if r.Num != 1 || r.Assign[0] != 0 {
		t.Errorf("singleton clustering = %+v", r)
	}
}

func TestAgglomerateAverageLinkageChaining(t *testing.T) {
	// A chain 0-1-2 with d(0,1)=d(1,2)=0.3 but d(0,2)=0.8: single
	// linkage would merge all three at 0.3; average linkage merges 0,1
	// then sees d({0,1},2) = (0.3+0.8)/2 = 0.55 > cutoff 0.5.
	d := [][]float64{
		{0, 0.3, 0.8},
		{0.3, 0, 0.3},
		{0.8, 0.3, 0},
	}
	r := Agglomerate(3, func(i, j int) float64 { return d[i][j] }, 0.5)
	if r.Num != 2 {
		t.Errorf("clusters = %d, want 2 (average linkage resists chaining)", r.Num)
	}
}

func TestTagDiff(t *testing.T) {
	gt := []string{"html", "head", "title", "body", "div", "p"}
	unknown := []string{"html", "head", "title", "body", "div", "script", "p", "img"}
	added, removed := TagDiff(unknown, gt)
	if added["script"] != 1 || added["img"] != 1 || len(added) != 2 {
		t.Errorf("added = %v", added)
	}
	if len(removed) != 0 {
		t.Errorf("removed = %v", removed)
	}
}

func TestTagDiffIdentity(t *testing.T) {
	seq := []string{"a", "b", "c"}
	added, removed := TagDiff(seq, seq)
	if len(added) != 0 || len(removed) != 0 {
		t.Errorf("identity diff = %v / %v", added, removed)
	}
	m := Modification{Added: added, Removed: removed}
	if m.Size() != 0 {
		t.Errorf("identity size = %d", m.Size())
	}
}

func TestModDistanceGroupsSimilarInjections(t *testing.T) {
	inj1 := Modification{Added: map[string]int{"script": 1}, Removed: map[string]int{}}
	inj2 := Modification{Added: map[string]int{"script": 1}, Removed: map[string]int{}}
	other := Modification{Added: map[string]int{"img": 46, "form": 1}, Removed: map[string]int{"div": 5}}
	mods := []Modification{inj1, inj2, other}
	r := ClusterModifications(mods, 0.3)
	if r.Num != 2 {
		t.Errorf("modification clusters = %d, want 2", r.Num)
	}
	if len(r.Merges) == 0 || r.Merges[0] != (Merge{A: 0, B: 1, Dist: 0, Size: 2}) {
		t.Errorf("identical injections merge = %+v, want 0+1 at distance 0", r.Merges)
	}
	// Average linkage puts other at its distance from either injection.
	if r := ClusterModifications(mods, 0.499); r.Num != 2 {
		t.Errorf("different modifications merged below distance 0.5: %+v", r.Merges)
	}
}

func TestAgglomerateInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newDetRand(seed)
		n := 3 + r.intn(25)
		// Random symmetric distance matrix in [0, 1].
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := r.unit()
				d[i][j], d[j][i] = v, v
			}
		}
		cutoff := r.unit()
		res := Agglomerate(n, func(i, j int) float64 { return d[i][j] }, cutoff)
		// Invariant 1: every item assigned to a valid cluster.
		if len(res.Assign) != n {
			return false
		}
		seen := map[int]bool{}
		for _, c := range res.Assign {
			if c < 0 || c >= res.Num {
				return false
			}
			seen[c] = true
		}
		// Invariant 2: all cluster ids used.
		if len(seen) != res.Num {
			return false
		}
		// Invariant 3: merges bounded and at non-decreasing count math:
		// clusters + merges == n.
		if res.Num+len(res.Merges) != n {
			return false
		}
		// Invariant 4: every merge happened at distance ≤ cutoff.
		for _, m := range res.Merges {
			if m.Dist > cutoff {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// newDetRand is a tiny deterministic generator for property tests.
type detRand struct{ state uint64 }

func newDetRand(seed int64) *detRand { return &detRand{state: uint64(seed)*2654435761 + 1} }

func (r *detRand) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state >> 11
}

func (r *detRand) unit() float64 { return float64(r.next()%1000000) / 1000000 }

func (r *detRand) intn(n int) int { return int(r.next() % uint64(n)) }

func TestLinkageAblation(t *testing.T) {
	// A chain of items each 0.3 from its neighbor but far from the rest:
	// single linkage would swallow the whole chain at the 0.4 cutoff;
	// average linkage keeps chain ends apart — the reason §3.6 uses it.
	n := 8
	dist := func(i, j int) float64 {
		d := i - j
		if d < 0 {
			d = -d
		}
		if d == 1 {
			return 0.3
		}
		return 0.9
	}
	if average := Agglomerate(n, dist, 0.4); average.Num <= 1 {
		t.Errorf("average linkage clusters = %d, want the chain split (more than 1)", average.Num)
	}
}
