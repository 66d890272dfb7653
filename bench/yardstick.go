package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The box this benchmark runs on is a few cores of a shared host, and the
// speed of those cores drifts: over twenty minutes the same order-20
// sweep ran between 10.3 M and 15.6 M probes/s, the same domain scan
// between 294 k and 512 k tuples/s, identical work and an idle guest. A
// timing taken as it reads therefore says more about the hour than about
// the program. The yardstick is a fixed piece of work that uses nothing
// of this repository — dependent reads of a 4 MiB table mixed with
// integer hashing, on every core at once — run in short bursts between a
// window's measurement intervals. Its rate followed the sweep's and the
// scan's with correlation 0.93 and 0.94 over those twenty minutes, and
// dividing by it brought their spread over 116 twelve-second blocks from
// 24 % and 33 % down to 6 % and 8 %. Every timed end-to-end metric is
// reported at the nominal machine speed: multiplied or divided by the
// run's yardstick rate over the nominal one. The measured values are
// printed beside them.

const (
	// yardTableWords is the yardstick's table: 4 MiB, larger than the
	// per-core caches, so the walk waits for memory as the host model does.
	yardTableWords = 1 << 19
	// yardUnitSteps is one unit of work: this many dependent steps.
	yardUnitSteps = 200000
	// yardBurstUnits is how many units each core does in one burst, about
	// an eighth of a second.
	yardBurstUnits = 12

	// nominalYardWall and nominalYardCPU are the yardstick's rate on the
	// box the committed baseline was taken on, in a typical hour: units
	// per second of wall time on both cores, and per second of CPU time.
	nominalYardWall = 190.0
	nominalYardCPU  = 96.0
)

var yardTable = sync.OnceValue(func() []uint64 {
	t := make([]uint64, yardTableWords)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	return t
})

var yardSink atomic.Uint64

// yardUnit does one unit of the fixed work.
func yardUnit(seed uint64) uint64 {
	t := yardTable()
	x, mask := seed, uint64(len(t)-1)
	for i := uint64(0); i < yardUnitSteps; i++ {
		x = t[x&mask] ^ (x*0x9E3779B97F4A7C15 + i)
	}
	return x
}

// yardstick collects a run's bursts. Bursts must run while this process
// does nothing else, so that its CPU clock times the burst alone.
type yardstick struct {
	wall []float64 // units per second of wall time, one per burst
	cpu  []float64 // units per second of this process's CPU time
}

// burst runs the fixed work on every core at once and records its rate.
func (y *yardstick) burst() {
	par := runtime.GOMAXPROCS(0)
	yardTable() // built outside the timing
	var wg sync.WaitGroup
	cpu0, start := selfCPU(), time.Now()
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s uint64
			for i := 0; i < yardBurstUnits; i++ {
				s ^= yardUnit(uint64(g*yardBurstUnits + i))
			}
			yardSink.Add(s)
		}(g)
	}
	wg.Wait()
	units := float64(par * yardBurstUnits)
	y.wall = append(y.wall, units/time.Since(start).Seconds())
	y.cpu = append(y.cpu, units/(selfCPU()-cpu0).Seconds())
}

// bursts runs n bursts back to back, where a window has few pauses.
func (y *yardstick) bursts(n int) {
	for i := 0; i < n; i++ {
		y.burst()
	}
}

// speed is the machine's speed over the run relative to nominal, as wall
// time sees it and as a process's CPU clock sees it; above 1 is faster.
// The two differ when the host takes the cores away for a while, which
// stretches wall time and leaves CPU time alone.
func (y *yardstick) speed() (wall, cpu float64) {
	return median(y.wall) / nominalYardWall, median(y.cpu) / nominalYardCPU
}
