// Package alloctest counts a function's heap allocations, for the
// zero-budget *Allocs tests of the hot paths.
//
// testing.AllocsPerRun divides the allocations of its runs by the run
// count and rounds down, so an append that grows once every 64 calls
// reads 0 over 100 runs. Count returns totals instead, over three
// consecutive windows of runs calls each, and reports the smallest. What
// it guarantees is therefore this: a path that allocates in every one of
// the three windows reads nonzero. Any growth at least once per runs
// calls is caught; a rarer one can land in only one or two windows and
// read 0.
package alloctest

import "runtime"

// measurements is how many windows Count measures.
// runtime.MemStats.Mallocs counts the whole process, so a goroutine that
// another test left behind can allocate during one window; keeping the
// smallest total ignores such a stray, at the price of also ignoring a
// path that allocates less often than once per window.
const measurements = 3

// Count runs f once to warm it (pools, lazily built tables, arenas grown
// to their steady size), then, at GOMAXPROCS 1, measures the heap
// allocations (runtime.MemStats.Mallocs) of three consecutive windows of
// runs further calls and returns the smallest total. A result of 0 means
// that at least one window of runs calls allocated nothing.
func Count(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var fewest uint64
	for m := 0; m < measurements; m++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; m == 0 || n < fewest {
			fewest = n
		}
	}
	return fewest
}
