// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Determinism matters here more than statistical perfection: the security
// tests replay the exact same random leaf assignments through two different
// ORAM controllers (Tiny and Shadow) and assert the externally visible
// traces are identical. A seeded stream that both controllers consume in
// lock-step makes that comparison exact rather than statistical.
package rng

import "math/bits"

// SplitMix64 is the splitmix64 generator by Steele, Lea and Flood. It is
// used both directly and to seed Xoshiro streams.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro is a xoshiro256** generator: fast, 256-bit state, good enough for
// workload generation and leaf-label assignment.
type Xoshiro struct {
	s [4]uint64
}

// NewXoshiro returns a generator whose state is derived from seed via
// SplitMix64, as recommended by the xoshiro authors.
func NewXoshiro(seed uint64) *Xoshiro {
	sm := NewSplitMix64(seed)
	var x Xoshiro
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	return &x
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Next returns the next 64-bit value in the stream.
func (x *Xoshiro) Next() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (x *Xoshiro) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's multiply-shift rejection method.
	for {
		v := x.Next()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// FillUint32n sets dst[i] to a uniform value in [0, n) for each i in
// order. It yields exactly the values, and leaves x in exactly the state,
// of len(dst) calls to Uint64n(n); it only keeps the generator state in
// locals and computes the rejection threshold once. n must be > 0.
func (x *Xoshiro) FillUint32n(dst []uint32, n uint32) {
	if n == 0 {
		panic("rng: FillUint32n with n == 0")
	}
	m := uint64(n)
	// Uint64n accepts lo >= n || lo >= (-n)%n; since (-n)%n < n, that is
	// lo >= (-n)%n alone.
	thresh := -m % m
	s0, s1, s2, s3 := x.s[0], x.s[1], x.s[2], x.s[3]
	for i := range dst {
		for {
			v := rotl(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			hi, lo := bits.Mul64(v, m)
			if lo >= thresh {
				dst[i] = uint32(hi)
				break
			}
		}
	}
	x.s = [4]uint64{s0, s1, s2, s3}
}

// Intn returns a uniform value in [0, n). n must be > 0.
func (x *Xoshiro) Intn(n int) int {
	return int(x.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (x *Xoshiro) Float64() float64 {
	return float64(x.Next()>>11) / (1 << 53)
}
