package main

import (
	"math/rand"
	"sort"
	"time"
)

// The benchmark runs on a few virtual CPUs of a shared host, whose speed
// drifts by tens of percent within minutes as other tenants come and go;
// the same op, on the same inputs, takes that much longer or shorter.  So
// every time the benchmark reports is scaled to a reference speed: it times
// a fixed calibration loop of its own before every op and after the last,
// and scales each op by refLoop over the mean of the two loops around it.
// A change to the system under test moves the op and not the loop, so it
// shows in full; a slower machine moves both, and cancels.
//
// The loop mixes what the simulated workloads spend their time on: integer
// arithmetic in registers, dependent loads from a table the size of a
// core's L2 cache, and a sort.  It allocates nothing, so the heap the
// system under test leaves does not slow it.

// refLoop is the calibration loop's time on the reference machine, a
// 2-vCPU Intel Xeon VM with Go 1.24, when it ran at its usual speed.  A
// reported time is the time the op would have taken there.
const refLoop = 3 * time.Millisecond

// calibration holds the loop's fixed inputs.
type calibration struct {
	chase  []uint32 // one random cycle through 64Ki entries: 256 KiB
	unsort []int    // 16Ki random ints
	buf    []int
	sink   uint64
}

func newCalibration() *calibration {
	const chaseLen, sortLen = 1 << 16, 1 << 14
	r := rand.New(rand.NewSource(1)) // the loop is the same in every run
	p := r.Perm(chaseLen)
	c := &calibration{chase: make([]uint32, chaseLen), unsort: make([]int, sortLen), buf: make([]int, sortLen)}
	for i := range p {
		c.chase[p[i]] = uint32(p[(i+1)%chaseLen])
	}
	for i := range c.unsort {
		c.unsort[i] = r.Int()
	}
	return c
}

// time runs the loop once and returns how long it took.
func (c *calibration) time() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 300_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	j := uint32(0)
	for i := 0; i < 100_000; i++ {
		j = c.chase[j]
	}
	copy(c.buf, c.unsort)
	sort.Ints(c.buf)
	c.sink += x + uint64(j) + uint64(c.buf[0])
	return time.Since(start)
}

// atRefSpeed scales d, which ran between two calibration loops that took
// before and after, to the reference speed, in milliseconds.
func atRefSpeed(d, before, after time.Duration) float64 {
	return ms(d) * 2 * float64(refLoop) / float64(before+after)
}
