package scanner

import (
	"sync"
	"testing"
	"unsafe"
)

// TestStripesFillCacheLines: a stripe of the sharded map and a striped
// mutex each span whole 64-byte cache lines, so neighbouring stripe locks
// never share one.
func TestStripesFillCacheLines(t *testing.T) {
	for name, size := range map[string]uintptr{
		"mapShard":    unsafe.Sizeof(mapShard[Responder]{}),
		"paddedMutex": unsafe.Sizeof(paddedMutex{}),
	} {
		if size%64 != 0 {
			t.Errorf("%s is %d bytes, not a multiple of 64", name, size)
		}
	}
}

func TestShardedMapInsertOnce(t *testing.T) {
	m := newShardedMap[int](0)
	if !m.InsertOnce(7, 1) {
		t.Fatal("first insert rejected")
	}
	if m.InsertOnce(7, 2) {
		t.Fatal("duplicate insert accepted")
	}
	v, ok := m.Get(7)
	if !ok || v != 1 {
		t.Fatalf("Get(7) = %d,%v want 1,true (first writer wins)", v, ok)
	}
	if _, ok := m.Get(8); ok {
		t.Fatal("Get of absent key reported present")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d want 1", m.Len())
	}
}

// TestShardedMapConcurrent is the race stress for the sharded collector:
// many goroutines hammer overlapping key ranges with InsertOnce and Get
// while another samples Len. Run under -race (make race covers this
// package) to certify the striping.
func TestShardedMapConcurrent(t *testing.T) {
	const (
		workers = 16
		keys    = 4096
	)
	m := newShardedMap[uint32](keys)
	done := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = m.Len()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint32) {
			defer wg.Done()
			// Each worker walks the full key space from a different
			// start, so every key sees contending writers.
			for i := uint32(0); i < keys; i++ {
				k := (i + w*131) % keys
				m.InsertOnce(k, k^w)
				if v, ok := m.Get(k); !ok || v^k >= workers {
					t.Errorf("key %d reads %d,%v after insert", k, v, ok)
					return
				}
			}
		}(uint32(w))
	}
	wg.Wait()
	close(done)
	sampler.Wait()

	if got := m.Len(); got != keys {
		t.Fatalf("Len = %d want %d", got, keys)
	}
	for k := uint32(0); k < keys; k++ {
		v, ok := m.Get(k)
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		// First writer wins: the stored value must be k^w for exactly one
		// of the racing workers, whichever got there first.
		if w := v ^ k; w >= workers {
			t.Fatalf("key %d holds %d, not written by any worker", k, v)
		}
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
