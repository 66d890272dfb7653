package alloctest

import "testing"

var sink []byte

// TestCountSeesWhatTheMeanRoundsAway: an append that reallocates once
// every 64 calls reads 0 under testing.AllocsPerRun over 100 runs, and 1
// here: the three measured windows after the warm call, calls 2–101,
// 102–201 and 202–301, hold one, two and one multiple of 64. A growth
// rarer than once per window can miss a window and read 0: that is
// Count's documented limit. A function that allocates nothing reads 0
// under both.
func TestCountSeesWhatTheMeanRoundsAway(t *testing.T) {
	calls := 0
	rare := func() {
		calls++
		if calls%64 == 0 {
			sink = append(sink[:len(sink):len(sink)], 1)
		}
	}
	if mean := testing.AllocsPerRun(100, rare); mean != 0 {
		t.Fatalf("AllocsPerRun = %v; the premise is that it rounds a rare growth to 0", mean)
	}
	calls = 0
	if got := Count(100, rare); got != 1 {
		t.Errorf("Count = %d, want 1", got)
	}
	calls = 0
	rarer := func() {
		calls++
		if calls%150 == 0 {
			sink = append(sink[:len(sink):len(sink)], 1)
		}
	}
	if got := Count(100, rarer); got != 0 {
		t.Errorf("Count of a growth every 150 calls over windows of 100 = %d, want 0 (windows 0, 1, 1)", got)
	}
	if got := Count(100, func() {}); got != 0 {
		t.Errorf("Count of an empty function = %d, want 0", got)
	}
}
