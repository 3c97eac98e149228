package sched

// PRNG is the deterministic pseudo-random source the chaos machinery
// schedules and samples with: Vigna's SplitMix64 generator — tiny, fast,
// full-period, and stable across Go releases (math/rand's global source
// changed in Go 1.20; chaos artifacts must not depend on stdlib internals).
// Its stream is fully determined by its seed, so a (seed, gate parameters,
// fault plan) triple replays to the identical execution.
type PRNG struct{ state uint64 }

// NewPRNG returns a deterministic PRNG seeded with seed.
func NewPRNG(seed int64) *PRNG { return &PRNG{state: uint64(seed)} }

// Uint64 returns the next raw 64-bit word of the stream.
func (s *PRNG) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n) by unbiased rejection sampling; it
// panics if n <= 0.
func (s *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("sched: Intn with non-positive bound")
	}
	bound := uint64(n)
	// Largest multiple of bound representable in 64 bits.
	limit := (^uint64(0) / bound) * bound
	for {
		v := s.Uint64()
		if v < limit {
			return int(v % bound)
		}
	}
}
