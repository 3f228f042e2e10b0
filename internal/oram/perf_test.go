package oram

import (
	"testing"

	"shadowblock/internal/rng"
)

// Hot-path performance pins. The simulator's wall-clock is dominated by the
// controller request path (every LLC miss walks it, and each posmap level
// multiplies it), so these benchmarks report allocs/op and the companion
// tests in alloc_test.go gate steady-state allocations at zero.

// perfConfig is a small-but-real geometry: deep enough to exercise the
// recursive posmap, the PLB, eviction phases and shadow duplication, small
// enough that constructing the controller stays cheap.
func perfConfig() Config {
	cfg := Default()
	cfg.L = 10
	cfg.StashCapacity = 120
	return cfg
}

// warmController builds a controller and drives it past the cold-start
// region (PLB fills, stash converges, every scratch buffer reaches its
// steady-state capacity).
func warmController(tb testing.TB, cfg Config) (*Controller, *rng.Xoshiro, int64) {
	tb.Helper()
	c, err := New(cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.NewXoshiro(42)
	n := uint64(cfg.NumDataBlocks())
	now := int64(0)
	for i := 0; i < 2000; i++ {
		out := c.Request(now, uint32(r.Uint64n(n)), i%4 == 0)
		now = out.Done + 10
	}
	return c, r, now
}

func BenchmarkControllerRequest(b *testing.B) {
	c, r, now := warmController(b, perfConfig())
	n := uint64(c.NumDataBlocks())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := c.Request(now, uint32(r.Uint64n(n)), i%4 == 0)
		now = out.Done + 10
	}
}

func BenchmarkControllerRequestPipelined(b *testing.B) {
	cfg := perfConfig()
	cfg.Pipeline = true
	c, r, now := warmController(b, cfg)
	n := uint64(c.NumDataBlocks())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := c.Request(now, uint32(r.Uint64n(n)), i%4 == 0)
		now = out.Done + 10
	}
}

func BenchmarkControllerRequestChannels(b *testing.B) {
	cfg := perfConfig()
	cfg.Pipeline = true
	cfg.Channels = 4
	c, r, now := warmController(b, cfg)
	n := uint64(c.NumDataBlocks())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := c.Request(now, uint32(r.Uint64n(n)), i%4 == 0)
		now = out.Done + 10
	}
}

func BenchmarkQueueIssue(b *testing.B) {
	c, r, now := warmController(b, perfConfig())
	q := NewQueue(c, 4)
	n := uint64(c.NumDataBlocks())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, done := q.Issue(now, i%4, uint32(r.Uint64n(n)), i%4 == 0)
		now = done + 10
	}
}

// BenchmarkNewEngine times one full engine construction at the default
// geometry (L=18, recursive position map): label generation, initial
// placement and the DRAM model. Fig. 11 builds one engine per cell, so
// this is the set-up cost every sweep pays.
func BenchmarkNewEngine(b *testing.B) {
	cfg := Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
