package cluster

import (
	"fmt"
	"math"
	"testing"
)

// The nearest-neighbor-chain implementation must be exact, not approximate:
// it has to produce the same average-linkage partition as the exhaustive
// closest-pair search it replaced. These differential tests pit
// agglomerateChain (via Agglomerate) against agglomerateExhaustive on
// seeded random instances.

// randDistMatrix builds a symmetric matrix of pairwise distances. With
// distinct=true every off-diagonal value is unique (a shuffled ladder of
// (k+1)/(np+1)); otherwise values are drawn from a small set so ties are
// common and the tie-breaking rules get exercised.
func randDistMatrix(r *detRand, n int, distinct bool) [][]float64 {
	np := n * (n - 1) / 2
	vals := make([]float64, np)
	if distinct {
		for k := range vals {
			vals[k] = float64(k+1) / float64(np+1)
		}
		for k := np - 1; k > 0; k-- {
			j := r.intn(k + 1)
			vals[k], vals[j] = vals[j], vals[k]
		}
	} else {
		for k := range vals {
			vals[k] = float64(1+r.intn(5)) / 8
		}
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m[i][j] = vals[k]
			m[j][i] = vals[k]
			k++
		}
	}
	return m
}

func samePartition(t *testing.T, got, want *Result, ctx string) {
	t.Helper()
	if got.Num != want.Num {
		t.Fatalf("%s: Num = %d, exhaustive = %d", ctx, got.Num, want.Num)
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("%s: Assign[%d] = %d, exhaustive = %d\nchain:      %v\nexhaustive: %v",
				ctx, i, got.Assign[i], want.Assign[i], got.Assign, want.Assign)
		}
	}
}

// validResult checks the structural invariants every clustering must
// satisfy regardless of tie resolution: a dense assignment, a merge count
// consistent with the cluster count, and a monotone merge history capped
// at the cutoff with coherent sizes.
func validResult(t *testing.T, r *Result, n int, cutoff float64, ctx string) {
	t.Helper()
	if len(r.Assign) != n {
		t.Fatalf("%s: len(Assign) = %d want %d", ctx, len(r.Assign), n)
	}
	if r.Num != n-len(r.Merges) {
		t.Fatalf("%s: Num = %d with %d merges over %d items", ctx, r.Num, len(r.Merges), n)
	}
	used := make([]bool, r.Num)
	for i, c := range r.Assign {
		if c < 0 || c >= r.Num {
			t.Fatalf("%s: Assign[%d] = %d outside [0,%d)", ctx, i, c, r.Num)
		}
		used[c] = true
	}
	for c, u := range used {
		if !u {
			t.Fatalf("%s: cluster %d empty (numbering not dense)", ctx, c)
		}
	}
	size := map[int]int{}
	for i := 0; i < n; i++ {
		size[i] = 1
	}
	prev := 0.0
	for k, m := range r.Merges {
		if m.Dist > cutoff {
			t.Fatalf("%s: merge %d at %g beyond cutoff %g", ctx, k, m.Dist, cutoff)
		}
		if m.Dist < prev {
			t.Fatalf("%s: merge %d at %g after one at %g (not monotone)", ctx, k, m.Dist, prev)
		}
		prev = m.Dist
		sa, oka := size[m.A]
		sb, okb := size[m.B]
		if !oka || !okb {
			t.Fatalf("%s: merge %d references unknown cluster ids %d/%d", ctx, k, m.A, m.B)
		}
		if m.Size != sa+sb {
			t.Fatalf("%s: merge %d size %d, operands total %d", ctx, k, m.Size, sa+sb)
		}
		delete(size, m.A)
		delete(size, m.B)
		size[n+k] = m.Size
	}
}

func TestChainMatchesExhaustive(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := newDetRand(seed)
		n := 2 + r.intn(40)
		distinct := seed%3 != 0 // every third instance is tie-heavy
		m := randDistMatrix(r, n, distinct)
		dist := func(i, j int) float64 { return m[i][j] }
		// Cutoffs span "merge nothing" through "merge everything".
		cutoffs := []float64{0, r.unit(), r.unit(), 1.5}
		for _, cut := range cutoffs {
			ctx := fmt.Sprintf("seed=%d n=%d distinct=%v cutoff=%g", seed, n, distinct, cut)
			got := Agglomerate(n, dist, cut)
			want := agglomerateExhaustive(n, dist, cut)
			validResult(t, got, n, cut, ctx)
			// Exact partition equality is guaranteed when the dendrogram
			// is unique, as it is for distinct distances. Tie-heavy
			// instances may legally differ from the oracle, so those only
			// get the structural checks above.
			if !distinct {
				continue
			}
			samePartition(t, got, want, ctx)
			// With no ties the whole merge history is forced, so the
			// dendrograms must agree merge for merge, with an ULP-scale
			// tolerance on the distance: the chain discovers merges in a
			// different temporal order than the global closest-pair
			// search, so the Lance-Williams weighted averages nest
			// differently in floating point.
			if len(got.Merges) != len(want.Merges) {
				t.Fatalf("%s: %d merges, exhaustive %d", ctx, len(got.Merges), len(want.Merges))
			}
			for k := range want.Merges {
				g, w := got.Merges[k], want.Merges[k]
				dOK := math.Abs(g.Dist-w.Dist) <= 1e-12*math.Max(1, w.Dist)
				if g.A != w.A || g.B != w.B || g.Size != w.Size || !dOK {
					t.Fatalf("%s: merge %d = %+v, exhaustive %+v", ctx, k, g, w)
				}
			}
		}
	}
}

// TestChainMatchesExhaustiveDegenerate covers the shapes property loops
// rarely hit: all-identical distances, and a matrix where one item is far
// from everything.
func TestChainMatchesExhaustiveDegenerate(t *testing.T) {
	n := 9
	flat := func(i, j int) float64 {
		if i == j {
			return 0
		}
		return 0.25
	}
	outlier := func(i, j int) float64 {
		if i == j {
			return 0
		}
		if i == n-1 || j == n-1 {
			return 0.9
		}
		return 0.1
	}
	for _, cut := range []float64{0.05, 0.25, 0.5, 0.95} {
		for name, dist := range map[string]func(i, j int) float64{"flat": flat, "outlier": outlier} {
			ctx := fmt.Sprintf("%s cutoff=%g", name, cut)
			samePartition(t, Agglomerate(n, dist, cut), agglomerateExhaustive(n, dist, cut), ctx)
		}
	}
}

// agglomerateExhaustive is the original O(n³) closest-pair implementation,
// kept as the reference oracle for the differential property tests: the
// chain algorithm must produce identical partitions at any cutoff.
func agglomerateExhaustive(n int, dist func(i, j int) float64, cutoff float64) *Result {
	if n == 0 {
		return &Result{}
	}
	// Active cluster bookkeeping over a dense distance matrix.
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := dist(i, j)
			d[i][j], d[j][i] = v, v
		}
	}
	size := make([]int, n)
	active := make([]bool, n)
	id := make([]int, n) // dendrogram id of slot i
	for i := range size {
		size[i] = 1
		active[i] = true
		id[i] = i
	}
	parent := make(map[int]int) // dendrogram id -> merged-into id
	var merges []Merge
	nextID := n
	remaining := n
	for remaining > 1 {
		// Find the closest active pair.
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if d[i][j] < best {
					bi, bj, best = i, j, d[i][j]
				}
			}
		}
		if bi < 0 || best > cutoff {
			break
		}
		// Merge bj into bi, updating distances to the size-weighted mean.
		na, nb := float64(size[bi]), float64(size[bj])
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			v := (na*d[bi][k] + nb*d[bj][k]) / (na + nb)
			d[bi][k], d[k][bi] = v, v
		}
		merges = append(merges, Merge{A: id[bi], B: id[bj], Dist: best, Size: size[bi] + size[bj]})
		parent[id[bi]] = nextID
		parent[id[bj]] = nextID
		id[bi] = nextID
		nextID++
		size[bi] += size[bj]
		active[bj] = false
		remaining--
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
