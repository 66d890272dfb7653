//go:build race

package wildnet

// raceEnabled gates the allocation-count regression tests: the race detector
// instruments allocations, so zero-alloc assertions only hold without it.
const raceEnabled = true
