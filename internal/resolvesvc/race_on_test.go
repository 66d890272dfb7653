//go:build race

package resolvesvc

// raceEnabled gates the heap-size contract: the race detector's shadow
// memory and instrumented allocations make HeapAlloc meaningless.
const raceEnabled = true
