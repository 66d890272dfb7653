package cluster

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Merge records one step of the agglomeration for dendrogram inspection
// (the paper values hierarchical clustering precisely because the analyst
// can audit the merge history, §3.6).
type Merge struct {
	// A and B are cluster ids being merged (initial items are clusters
	// 0..n-1; merge k creates cluster n+k).
	A, B int
	// Dist is the average-linkage distance at which the merge happened.
	Dist float64
	// Size is the merged cluster's item count.
	Size int
}

// Result is a finished clustering.
type Result struct {
	// Assign maps each item to a dense cluster index in [0, Num).
	Assign []int
	// Num is the number of clusters after cutting the dendrogram.
	Num int
	// Merges is the full merge history (n-1 entries when run to one
	// cluster; fewer when the cutoff stops early).
	Merges []Merge
}

// Members returns the item indices of each cluster.
func (r *Result) Members() [][]int {
	out := make([][]int, r.Num)
	for item, c := range r.Assign {
		out[c] = append(out[c], item)
	}
	return out
}

// Agglomerate performs agglomerative hierarchical clustering with average
// linkage (§3.6: "similar instances are grouped using average linkage")
// over n items whose pairwise distance is given by dist. Merging stops
// when the closest pair of clusters is farther than cutoff; the remaining
// clusters are the result.
//
// Average linkage is maintained with the Lance–Williams update: after
// merging clusters a and b, the distance from the merge to any other
// cluster c is the size-weighted mean of d(a,c) and d(b,c), which equals
// the mean pairwise item distance.
//
// Implementation: the nearest-neighbor-chain algorithm over a flat
// distance matrix — O(n²) time instead of the O(n³) closest-pair scan.
// Average linkage is reducible (merging two clusters never brings the
// merge closer to a third than the nearer of the two was), which makes
// chain merges produce the same dendrogram heights as globally-closest-
// pair merging; replaying the merges in ascending distance order then
// yields the same cutoff partition. When distinct pairs tie at exactly
// equal distance the dendrogram is not unique, and the chain may resolve
// such a tie into a different — equally valid — tree than the exhaustive
// scan. The result is still deterministic for a given input, which is
// what the reporting contract requires. dist must be pure: the initial
// matrix is filled from GOMAXPROCS goroutines, so dist(i, j) is called
// concurrently (classify's feature distances are pure functions of the
// immutable representative features).
func Agglomerate(n int, dist func(i, j int) float64, cutoff float64) *Result {
	if n == 0 {
		return &Result{}
	}
	return agglomerateChain(n, newDistMatrix(n, dist), cutoff)
}

// parallelMatrixMin is the item count below which the distance matrix is
// filled serially; goroutine fan-out costs more than it saves under it.
const parallelMatrixMin = 96

// newDistMatrix evaluates the pairwise distances into a flat row-major
// n×n matrix. Rows are distributed over GOMAXPROCS workers via an atomic
// cursor; every cell value is independent of scheduling, so the matrix is
// deterministic. The upper triangle is computed, then mirrored.
func newDistMatrix(n int, dist func(i, j int) float64) []float64 {
	d := make([]float64, n*n)
	fillRow := func(i int) {
		row := d[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			row[j] = dist(i, j)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if n < parallelMatrixMin || workers <= 1 {
		for i := 0; i < n; i++ {
			fillRow(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fillRow(i)
				}
			}()
		}
		wg.Wait()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d[j*n+i] = d[i*n+j]
		}
	}
	return d
}

// rawMerge is one chain-discovered merge, recorded by slot index for the
// ascending-distance replay.
type rawMerge struct {
	lo, hi int // slot indices at merge time, lo < hi; hi is retired
	dist   float64
	size   int
}

// agglomerateChain runs the nearest-neighbor chain to a full dendrogram,
// then replays the merges in ascending distance order, applying the
// cutoff, to produce the same Result shape (merge ids, dense cluster
// numbering, assignment) as the exhaustive closest-pair reference.
func agglomerateChain(n int, d []float64, cutoff float64) *Result {
	size := make([]int, n)
	active := make([]bool, n)
	for i := range size {
		size[i] = 1
		active[i] = true
	}
	raw := make([]rawMerge, 0, n-1)
	chain := make([]int, 0, n)
	scan := 0 // lowest slot that may still be active, for chain restarts
	for len(raw) < n-1 {
		if len(chain) == 0 {
			for !active[scan] {
				scan++
			}
			chain = append(chain, scan)
		}
		x := chain[len(chain)-1]
		prev := -1
		if len(chain) >= 2 {
			prev = chain[len(chain)-2]
		}
		// Nearest active neighbor of x. Seeding best with the chain
		// predecessor makes ties prefer it, so an equal-distance neighbor
		// is detected as reciprocal instead of extending the chain into a
		// cycle; among other ties the lowest slot wins (strict <).
		row := d[x*n : (x+1)*n]
		best, bi := math.Inf(1), -1
		if prev >= 0 {
			best, bi = row[prev], prev
		}
		for k := 0; k < n; k++ {
			if !active[k] || k == x || k == prev {
				continue
			}
			if row[k] < best {
				best, bi = row[k], k
			}
		}
		if bi != prev || prev < 0 {
			chain = append(chain, bi)
			continue
		}
		// x and prev are mutual nearest neighbors: merge. The surviving
		// cluster lives in the lower slot with na taken from it, exactly
		// as the exhaustive reference merges bj into bi<bj — so the
		// Lance-Williams updates are bitwise identical for an identical
		// merge tree.
		lo, hi := x, prev
		if lo > hi {
			lo, hi = hi, lo
		}
		na, nb := float64(size[lo]), float64(size[hi])
		rl := d[lo*n : (lo+1)*n]
		rh := d[hi*n : (hi+1)*n]
		for k := 0; k < n; k++ {
			if !active[k] || k == lo || k == hi {
				continue
			}
			v := (na*rl[k] + nb*rh[k]) / (na + nb)
			rl[k] = v
			d[k*n+lo] = v
		}
		raw = append(raw, rawMerge{lo: lo, hi: hi, dist: best, size: size[lo] + size[hi]})
		size[lo] += size[hi]
		active[hi] = false
		chain = chain[:len(chain)-2]
	}

	// Replay in ascending distance. A reducible linkage gives a monotone
	// dendrogram, so a stable sort keeps every merge after the merges
	// that formed its operands; cutting at the cutoff therefore removes a
	// suffix of consistent merges only.
	sort.SliceStable(raw, func(i, j int) bool { return raw[i].dist < raw[j].dist })
	id := make([]int, n) // dendrogram id of slot i
	for i := range id {
		id[i] = i
		active[i] = true
	}
	parent := make(map[int]int) // dendrogram id -> merged-into id
	var merges []Merge
	nextID := n
	for _, rm := range raw {
		if rm.dist > cutoff {
			continue
		}
		merges = append(merges, Merge{A: id[rm.lo], B: id[rm.hi], Dist: rm.dist, Size: rm.size})
		parent[id[rm.lo]] = nextID
		parent[id[rm.hi]] = nextID
		id[rm.lo] = nextID
		nextID++
		active[rm.hi] = false
	}
	// Densely number the surviving clusters and resolve items to them.
	clusterOf := map[int]int{}
	num := 0
	for i := 0; i < n; i++ {
		if active[i] {
			clusterOf[id[i]] = num
			num++
		}
	}
	assign := make([]int, n)
	for i := 0; i < n; i++ {
		c := i
		for {
			p, ok := parent[c]
			if !ok {
				break
			}
			c = p
		}
		assign[i] = clusterOf[c]
	}
	return &Result{Assign: assign, Num: num, Merges: merges}
}
