package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// modDistanceMaps is the modification distance over the map form: the
// Jaccard-multiset distance of the additions and of the removals,
// averaged. ClusterModifications must compute it bit for bit.
func modDistanceMaps(a, b Modification) float64 {
	return (JaccardMultiset(a.Added, b.Added) + JaccardMultiset(a.Removed, b.Removed)) / 2
}

// randTags draws a tag multiset of up to size distinct tags from a
// vocabulary of vocab names, with counts in [1, 6].
func randTags(r *detRand, vocab, size int) map[string]int {
	m := map[string]int{}
	for k := r.intn(size + 1); k > 0; k-- {
		m[fmt.Sprintf("t%d", r.intn(vocab))] = 1 + r.intn(6)
	}
	return m
}

// TestJaccardSortedMatchesMultiset: on seeded multisets — both empty, one
// empty, disjoint, identical and overlapping — the merge walk over
// interned, sorted entries returns JaccardMultiset's float, bit for bit.
func TestJaccardSortedMatchesMultiset(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := newDetRand(seed)
		a := randTags(r, 12, 8)
		pairs := map[string]map[string]int{
			"empty":       {},
			"identical":   a,
			"overlapping": randTags(r, 12, 8),
			"disjoint":    {},
		}
		for tag, n := range randTags(r, 12, 8) {
			pairs["disjoint"]["u"+tag] = n
		}
		for name, b := range pairs {
			ids := map[string]int32{}
			sa, sb := internTags(ids, a), internTags(ids, b)
			for _, c := range []struct {
				x, y   map[string]int
				sx, sy []tagCount
			}{{a, b, sa, sb}, {b, a, sb, sa}, {b, b, sb, sb}} {
				got, want := jaccardSorted(c.sx, c.sy), JaccardMultiset(c.x, c.y)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d %s: jaccardSorted(%v, %v) = %v, JaccardMultiset = %v", seed, name, c.x, c.y, got, want)
				}
			}
		}
	}
}

// modCorpus generates n modifications over a small tag vocabulary, with
// every fifth one a copy of an earlier one so exact ties occur.
func modCorpus(seed int64, n int) []Modification {
	r := newDetRand(seed)
	mods := make([]Modification, n)
	for i := range mods {
		if i > 0 && i%5 == 0 {
			mods[i] = mods[r.intn(i)]
			continue
		}
		mods[i] = Modification{Added: randTags(r, 24, 6), Removed: randTags(r, 24, 4)}
	}
	return mods
}

// TestClusterModificationsMatchesMapDistance: ClusterModifications gives
// the merges and labels Agglomerate gives over the map-based distance.
func TestClusterModificationsMatchesMapDistance(t *testing.T) {
	for _, n := range []int{1, 2, 37, 300} {
		mods := modCorpus(int64(n), n)
		for _, cutoff := range []float64{0, 0.25, 0.6, 1} {
			got := ClusterModifications(mods, cutoff)
			want := Agglomerate(len(mods), func(i, j int) float64 { return modDistanceMaps(mods[i], mods[j]) }, cutoff)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d cutoff=%v: %d clusters, %d merges; map distance gives %d, %d",
					n, cutoff, got.Num, len(got.Merges), want.Num, len(want.Merges))
			}
		}
	}
}

var sinkResult *Result

// BenchmarkClusterModifications clusters 800 generated modifications —
// the classify pipeline's MaxReps cap — at the pipeline's 0.25 cutoff.
func BenchmarkClusterModifications(b *testing.B) {
	mods := modCorpus(800, 800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkResult = ClusterModifications(mods, 0.25)
	}
}
