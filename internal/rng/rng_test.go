package rng

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// mul64Reference is the hand-rolled 128-bit multiply Uint64n used before
// it switched to bits.Mul64, kept as the oracle for the replacement.
func mul64Reference(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// TestMul64MatchesReference pins bits.Mul64 to the reference product on
// edge operands (0, 1, every power of two, 2^64-1 and their neighbours)
// and on random pairs, so Uint64n's draws are unchanged by the switch.
func TestMul64MatchesReference(t *testing.T) {
	edges := []uint64{0, 1, 2, 3, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, 1<<64 - 1, 1<<64 - 2}
	for k := 0; k < 64; k++ {
		edges = append(edges, 1<<uint(k))
	}
	check := func(a, b uint64) {
		t.Helper()
		hi, lo := bits.Mul64(a, b)
		rhi, rlo := mul64Reference(a, b)
		if hi != rhi || lo != rlo {
			t.Fatalf("Mul64(%#x, %#x) = (%#x, %#x), reference (%#x, %#x)", a, b, hi, lo, rhi, rlo)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	x := NewXoshiro(13)
	for i := 0; i < 100000; i++ {
		check(x.Next(), x.Next())
	}
}

func TestSplitMixDeterministic(t *testing.T) {
	a, b := NewSplitMix64(7), NewSplitMix64(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewSplitMix64(8)
	if NewSplitMix64(7).Next() == c.Next() {
		t.Fatal("different seeds produced the same first value")
	}
}

func TestXoshiroDeterministic(t *testing.T) {
	a, b := NewXoshiro(7), NewXoshiro(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestUint64nRange(t *testing.T) {
	x := NewXoshiro(3)
	f := func(n uint64) bool {
		n = n%1000 + 1
		v := x.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewXoshiro(1).Uint64n(0)
}

func TestUint64nRoughlyUniform(t *testing.T) {
	x := NewXoshiro(11)
	const n, buckets, samples = 64, 8, 64000
	var hist [buckets]int
	for i := 0; i < samples; i++ {
		hist[x.Uint64n(n)*buckets/n]++
	}
	for i, h := range hist {
		if h < samples/buckets*8/10 || h > samples/buckets*12/10 {
			t.Fatalf("bucket %d count %d far from uniform %d", i, h, samples/buckets)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	x := NewXoshiro(5)
	for i := 0; i < 10000; i++ {
		v := x.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %f outside [0,1)", v)
		}
	}
}

func TestIntn(t *testing.T) {
	x := NewXoshiro(9)
	for i := 0; i < 1000; i++ {
		if v := x.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
}

// TestFillUint32nMatchesUint64n pins the batch fill to repeated Uint64n:
// the same values and the same next Next(). It covers a power-of-two n
// (no rejection possible), non-powers of two, and a hand-built state whose
// first output is 0, which Uint64n rejects for any n that is not a power
// of two, so the rejection branch provably runs.
func TestFillUint32nMatchesUint64n(t *testing.T) {
	rejecting := Xoshiro{s: [4]uint64{1, 0, 2, 3}} // first output rotl(0*5,7)*9 = 0
	if probe := rejecting; probe.Next() != 0 {
		t.Fatal("crafted state does not start with a zero output")
	}
	starts := map[string]Xoshiro{
		"seed1":     *NewXoshiro(1),
		"seed99":    *NewXoshiro(99),
		"rejecting": rejecting,
	}
	for _, n := range []uint32{1, 2, 1 << 18, 3, 1000003, 3 << 30, 1<<32 - 1} {
		for name, start := range starts {
			for _, size := range []int{0, 1, 7, 1000} {
				ref, got := start, start
				want := make([]uint32, size)
				for i := range want {
					want[i] = uint32(ref.Uint64n(uint64(n)))
				}
				out := make([]uint32, size)
				got.FillUint32n(out, n)
				for i := range want {
					if out[i] != want[i] {
						t.Fatalf("n=%d %s size=%d: dst[%d]=%d, Uint64n gave %d", n, name, size, i, out[i], want[i])
					}
				}
				if got.Next() != ref.Next() {
					t.Fatalf("n=%d %s size=%d: generator state differs after the fill", n, name, size)
				}
			}
		}
	}

	// The crafted state's first draw really is rejected: it consumes two
	// outputs, not one.
	once, twice := rejecting, rejecting
	once.Uint64n(3)
	twice.Next()
	twice.Next()
	if once != twice {
		t.Fatal("Uint64n(3) from the crafted state did not reject its first output")
	}
}
