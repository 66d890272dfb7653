// Package cluster implements the unsupervised grouping machinery of §3.6:
// the seven-feature normalized distance between HTTP responses, the
// agglomerative hierarchical clustering with average linkage used for
// coarse-grained grouping, and the diff-based fine-grained clustering
// that isolates small modifications to known pages.
package cluster

import (
	"goingwild/internal/htmlx"
)

// editCap bounds the inputs of quadratic edit distances; beyond this the
// prefix is representative and the cost stays O(editCap²).
const editCap = 2048

// EditDistanceTokens returns the Levenshtein distance between two token
// sequences, normalized to [0, 1] by the longer length. This implements
// the paper's tag-sequence feature (each HTML tag normalized to a short
// identifier; the order of elements matters).
func EditDistanceTokens(a, b []string) float64 {
	if len(a) > editCap {
		a = a[:editCap]
	}
	if len(b) > editCap {
		b = b[:editCap]
	}
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	d := levenshtein(len(a), len(b), func(i, j int) bool { return a[i] == b[j] })
	m := max(len(a), len(b))
	return float64(d) / float64(m)
}

// EditDistanceString returns the normalized Levenshtein distance between
// two strings, capped at editCap bytes.
func EditDistanceString(a, b string) float64 {
	if len(a) > editCap {
		a = a[:editCap]
	}
	if len(b) > editCap {
		b = b[:editCap]
	}
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	d := levenshtein(len(a), len(b), func(i, j int) bool { return a[i] == b[j] })
	m := max(len(a), len(b))
	return float64(d) / float64(m)
}

// levenshtein computes edit distance with a two-row DP.
func levenshtein(n, m int, eq func(i, j int) bool) int {
	if n == 0 {
		return m
	}
	if m == 0 {
		return n
	}
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		for j := 1; j <= m; j++ {
			cost := 1
			if eq(i-1, j-1) {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// JaccardMultiset returns the Jaccard distance 1 − |A∩B|/|A∪B| for
// multisets (intersection: per-key minimum; union: per-key maximum).
func JaccardMultiset(a, b map[string]int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter, union := 0, 0
	for k, av := range a {
		bv := b[k]
		inter += min(av, bv)
		union += max(av, bv)
	}
	for k, bv := range b {
		if _, seen := a[k]; !seen {
			union += bv
		}
	}
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// JaccardSet returns the Jaccard distance between two string slices
// treated as sets.
func JaccardSet(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	as := make(map[string]struct{}, len(a))
	for _, s := range a {
		as[s] = struct{}{}
	}
	bs := make(map[string]struct{}, len(b))
	for _, s := range b {
		bs[s] = struct{}{}
	}
	inter := 0
	for s := range as {
		if _, ok := bs[s]; ok {
			inter++
		}
	}
	union := len(as) + len(bs) - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// lengthDistance normalizes the body-length difference, the paper's first
// coarse comparison feature.
func lengthDistance(a, b int) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(max(a, b))
}

// FeatureDistance is the seven-feature normalized distance of §3.6, all
// features weighted equally:
//
//  1. HTTP body length difference
//  2. Jaccard distance of the HTML tag multiset
//  3. edit distance of the opening-tag sequence
//  4. edit distance of the <title> value
//  5. edit distance of the JavaScript code
//  6. Jaccard distance of embedded resources (src attributes)
//  7. Jaccard distance of outgoing links (href attributes)
func FeatureDistance(a, b *htmlx.Features) float64 {
	sum := lengthDistance(a.BodyLen, b.BodyLen)
	sum += JaccardMultiset(a.TagSet, b.TagSet)
	sum += EditDistanceTokens(a.TagSeq, b.TagSeq)
	sum += EditDistanceString(a.Title, b.Title)
	sum += EditDistanceString(a.Scripts, b.Scripts)
	sum += JaccardSet(a.Srcs, b.Srcs)
	sum += JaccardSet(a.Hrefs, b.Hrefs)
	return sum / 7
}
