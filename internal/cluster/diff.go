package cluster

import (
	"cmp"
	"slices"
)

// Fine-grained clustering (§3.6, second stage): unknown responses are
// diffed against the most similar ground-truth representation of the
// website; the multisets of added and removed HTML tags summarize the
// modification, and responses with similar modifications cluster together
// via Jaccard distance. Small diffs with injected <script>/<form>/<img>
// tags are exactly how the paper surfaces phishing and ad injection.

// TagDiff computes the tags added to and removed from gt to obtain
// unknown, using a longest-common-subsequence diff over the opening-tag
// sequences (the `diff` utility role of §3.6).
func TagDiff(unknown, gt []string) (added, removed map[string]int) {
	added = map[string]int{}
	removed = map[string]int{}
	u, g := unknown, gt
	if len(u) > editCap {
		u = u[:editCap]
	}
	if len(g) > editCap {
		g = g[:editCap]
	}
	// LCS table.
	n, m := len(u), len(g)
	lcs := make([][]int32, n+1)
	for i := range lcs {
		lcs[i] = make([]int32, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if u[i] == g[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	// Walk the table emitting additions/removals.
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case u[i] == g[j]:
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			added[u[i]]++
			i++
		default:
			removed[g[j]]++
			j++
		}
	}
	for ; i < n; i++ {
		added[u[i]]++
	}
	for ; j < m; j++ {
		removed[g[j]]++
	}
	return added, removed
}

// Modification summarizes one unknown response's difference from its
// nearest ground truth.
type Modification struct {
	Added   map[string]int
	Removed map[string]int
}

// Size returns the total number of changed tags; zero means the page is a
// byte-structure-identical copy (the transparent-proxy signature).
func (m Modification) Size() int {
	n := 0
	for _, v := range m.Added {
		n += v
	}
	for _, v := range m.Removed {
		n += v
	}
	return n
}

// tagCount is one entry of an interned tag multiset: the tag's id in a
// ClusterModifications call's vocabulary, and its multiplicity.
type tagCount struct {
	id int32
	n  int
}

// internTags turns a tag multiset into its entries sorted by id, adding
// unseen tags to ids. Which id a tag gets depends on map order; the
// Jaccard sums do not, since they only ask whether two ids are equal.
func internTags(ids map[string]int32, m map[string]int) []tagCount {
	out := make([]tagCount, 0, len(m))
	for tag, n := range m {
		id, ok := ids[tag]
		if !ok {
			id = int32(len(ids))
			ids[tag] = id
		}
		out = append(out, tagCount{id: id, n: n})
	}
	slices.SortFunc(out, func(a, b tagCount) int { return cmp.Compare(a.id, b.id) })
	return out
}

// jaccardSorted is JaccardMultiset over two id-sorted multisets: a merge
// walk that sums the same per-tag minima and maxima as integers, so it
// divides to the same float.
func jaccardSorted(a, b []tagCount) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter, union := 0, 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].id < b[j].id:
			union += a[i].n
			i++
		case a[i].id > b[j].id:
			union += b[j].n
			j++
		default:
			inter += min(a[i].n, b[j].n)
			union += max(a[i].n, b[j].n)
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		union += a[i].n
	}
	for ; j < len(b); j++ {
		union += b[j].n
	}
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// ClusterModifications groups modifications with agglomerative average
// linkage at the given cutoff. The distance between two modifications is
// the Jaccard-multiset distance of their additions and of their removals,
// averaged; the tag names are interned once per call, so each of the
// O(n²) pairs is two merge walks over sorted slices.
func ClusterModifications(mods []Modification, cutoff float64) *Result {
	ids := map[string]int32{}
	added := make([][]tagCount, len(mods))
	removed := make([][]tagCount, len(mods))
	for i, m := range mods {
		added[i] = internTags(ids, m.Added)
		removed[i] = internTags(ids, m.Removed)
	}
	return Agglomerate(len(mods), func(i, j int) float64 {
		return (jaccardSorted(added[i], added[j]) + jaccardSorted(removed[i], removed[j])) / 2
	}, cutoff)
}
