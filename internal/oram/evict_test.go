package oram

import (
	"slices"
	"testing"

	"shadowblock/internal/rng"
)

// TestPathWriteReusesReadStaging pins pathWrite's precondition: the
// eviction writes back over the locations its own path read staged, so at
// write dispatch locBuf must equal a fresh stagePath of the written leaf.
// A stage between the two that clobbered locBuf, or an eviction whose
// read and write leaves diverged, would fail here for every engine that
// consumes the staged path: flat, per-channel and the decoupled
// writeback queue.
func TestPathWriteReusesReadStaging(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"flat", func(*Config) {}},
		{"flat-treetop", func(c *Config) { c.TreetopLevels = 3 }},
		{"pipe", func(c *Config) { c.Pipeline = true }},
		{"pipe-c2", func(c *Config) { c.Pipeline = true; c.Channels = 2 }},
		{"serial-c4", func(c *Config) { c.Channels = 4 }},
		{"pipe-c4-wbd", func(c *Config) { c.Pipeline = true; c.Channels = 4; c.WBDecoupled = true }},
		{"wbd", func(c *Config) { c.WBDecoupled = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.edit(&cfg)
			c, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			var leaf uint32
			writes := 0
			c.SetObserver(func(e Event) {
				if e.Kind == EvPathWrite {
					leaf = e.Leaf
				}
			})
			dispatch := c.dispatchWrite
			c.dispatchWrite = func(start int64) int64 {
				writes++
				staged := slices.Clone(c.locBuf)
				c.stagePath(c.geo.Path(leaf, make([]int, c.geo.Levels())))
				if !slices.Equal(staged, c.locBuf) {
					t.Fatalf("write %d of leaf %d: dispatch sees %d staged locations that differ from a fresh staging (%d)",
						writes, leaf, len(staged), len(c.locBuf))
				}
				return dispatch(start)
			}
			r := rng.NewXoshiro(5)
			n := uint64(c.NumDataBlocks())
			now := int64(0)
			for i := 0; i < 300; i++ {
				out := c.Request(now, uint32(r.Uint64n(n)), i%3 == 0)
				now = out.Done + 7
			}
			if writes == 0 {
				t.Fatal("no path write reached dispatch")
			}
		})
	}
}
