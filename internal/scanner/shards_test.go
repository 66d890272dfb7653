package scanner

import (
	"sync"
	"testing"
	"unsafe"
)

// TestStripesFillCacheLines: a striped mutex's stripe spans whole 64-byte
// cache lines, so neighbouring stripe locks never share one.
func TestStripesFillCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(paddedMutex{}); size%64 != 0 {
		t.Errorf("paddedMutex is %d bytes, not a multiple of 64", size)
	}
}

// TestClaimBitsOneWinner is the race stress for the claim bits: four
// goroutines claim overlapping index ranges, every index of the range has
// exactly one winner, and the bit read agrees with the claims — while
// they run and after. An index past the end is never claimed. make race
// runs it three times under the detector.
func TestClaimBitsOneWinner(t *testing.T) {
	const (
		workers = 4
		n       = 4096 + 17 // a partial last word
	)
	b := newClaimBits(n)
	wins := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine walks the whole range from its own start,
			// so every index has contending claimers.
			for k := uint32(0); k < n; k++ {
				i := (k + uint32(w)*1031) % n
				if b.claim(i) {
					wins[w] = append(wins[w], i)
				}
				if !b.has(i) {
					t.Errorf("index %d reads unclaimed after a claim", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	won := make([]int, n)
	for _, ws := range wins {
		for _, i := range ws {
			won[i]++
		}
	}
	for i, c := range won {
		if c != 1 {
			t.Fatalf("index %d has %d winners, want 1", i, c)
		}
		if !b.has(uint32(i)) {
			t.Fatalf("index %d won but reads unclaimed", i)
		}
	}
	if b.claim(uint32(len(b) * 64)) {
		t.Fatal("an index past the end was claimed")
	}
}

func TestStripedMutexCoversAllKeys(t *testing.T) {
	var sm stripedMutex
	counters := make([]int, 1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range counters {
				mu := sm.of(uint32(i))
				mu.Lock()
				counters[i]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i, c := range counters {
		if c != 8 {
			t.Fatalf("counter %d = %d want 8", i, c)
		}
	}
}

func TestShardOfSpread(t *testing.T) {
	// Sweep keys must spread across stripes; a degenerate hash would
	// re-serialize the collector.
	var hits [nStripes]int
	for i := uint32(1); i <= 1<<14; i++ {
		hits[shardOf(i)]++
	}
	for s, h := range hits {
		if h == 0 {
			t.Fatalf("stripe %d never hit over 16k sequential keys", s)
		}
	}
}
