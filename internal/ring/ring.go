// Package ring implements a Ring ORAM controller ([34]) with shadow-block
// support, substantiating the paper's claim that the duplication technique
// "can be applied to any other ORAMs that utilize dummy blocks" (§II-C).
//
// Ring ORAM separates reads from evictions more aggressively than Tiny
// ORAM: each bucket holds Z real slots plus S dummy slots in a secret
// per-bucket permutation, a read touches exactly ONE slot per bucket (the
// intended block in its bucket, an unread dummy elsewhere), evictions
// rewrite a reverse-lexicographic path every A reads, and a bucket whose
// dummies run out is reshuffled early.
//
// Shadow blocks slot in naturally: dummy slots written during evictions and
// reshuffles may carry copies of real blocks. When a read path crosses a
// bucket holding a *fresh* shadow of the intended block, the controller
// reads that slot instead of a random dummy — indistinguishable to the
// attacker, because slot positions are freshly permuted on every bucket
// write, but the data arrives levels earlier.
package ring

import (
	"fmt"

	"shadowblock/internal/block"
	"shadowblock/internal/dram"
	"shadowblock/internal/oram"
	"shadowblock/internal/posmap"
	"shadowblock/internal/rng"
	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// Config describes a Ring ORAM instance.
type Config struct {
	L int // leaf level
	Z int // real slots per bucket
	S int // dummy slots per bucket
	A int // eviction rate: one EvictPath per A reads

	BlockBytes    int
	StashCapacity int
	AESLatency    int64

	TimingProtection bool
	RequestRate      int64
	XOR              bool

	Seed uint64
	DRAM dram.Config
}

// Default returns the classic Ring ORAM parameterisation (Z=4, S=6, A=3)
// at the same scaled geometry as the Tiny ORAM default.
func Default() Config {
	return Config{
		L: 18, Z: 4, S: 6, A: 3,
		BlockBytes:    64,
		StashCapacity: 200,
		AESLatency:    32,
		RequestRate:   800,
		Seed:          1,
		DRAM:          dram.DDR3_1333(),
	}
}

// NumDataBlocks returns the data address space: 2^(L+2) blocks, 50% of the
// Z real slots.
func (c Config) NumDataBlocks() int { return 1 << uint(c.L+2) }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.L < 4 || c.L > 24:
		return fmt.Errorf("ring: L=%d outside [4,24]", c.L)
	case c.Z < 1 || c.S < 1:
		return fmt.Errorf("ring: Z=%d S=%d must be positive", c.Z, c.S)
	case c.Z+c.S > 16:
		return fmt.Errorf("ring: Z+S=%d exceeds the slot encoding", c.Z+c.S)
	case c.A < 1:
		return fmt.Errorf("ring: A=%d must be >= 1", c.A)
	case c.BlockBytes < 8 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("ring: bad block size %d", c.BlockBytes)
	case c.StashCapacity < c.Z*(c.L+1):
		return fmt.Errorf("ring: stash %d below one path of reals", c.StashCapacity)
	case c.TimingProtection && c.RequestRate < 1:
		return fmt.Errorf("ring: timing protection needs a positive rate")
	}
	return c.DRAM.Validate()
}

// Stats mirrors the Tiny controller's counters for the Ring protocol.
type Stats struct {
	Requests        uint64
	StashHits       uint64
	ShadowStashHits uint64
	Reads           uint64 // ReadPath operations
	DummyReads      uint64 // timing-protection dummies
	Evictions       uint64 // EvictPath operations
	Reshuffles      uint64 // early reshuffles
	ShadowForwards  uint64 // reads served early from a shadow slot
	StaleShadows    uint64 // stale shadows dropped during collection
	StashOverflows  uint64
	Anomalies       uint64

	DataAccessCycles int64
}

// Controller is the Ring ORAM state machine.
type Controller struct {
	cfg    Config
	geo    tree.Geometry // geometry with Z+S slots per bucket (layout)
	layout tree.Layout
	mem    *dram.Memory
	st     *stash.Stash
	pos    *posmap.Store
	policy oram.DupPolicy

	slots      []uint64 // packed block.Meta per physical slot
	valid      []bool   // slot unread since the bucket's last write
	dummiesUp  []uint8  // valid non-real slots remaining per bucket
	realsAlive []uint8  // valid real blocks per bucket (diagnostics)

	labelRNG *rng.Xoshiro
	slotRNG  *rng.Xoshiro
	dummyRNG *rng.Xoshiro

	readCount  uint64
	evictCount uint64
	busyUntil  int64

	stats    Stats
	observer func(oram.Event)

	pathBuf  []int
	locBuf   []dram.Loc
	doneBuf  []int64
	poolsBuf [][]uint32
}

// New builds a Ring ORAM controller. policy may be nil (plain Ring ORAM)
// or a shadow-block policy bound to this controller's geometry and stash
// via core.NewPolicy.
func New(cfg Config, policy oram.DupPolicy) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo, err := tree.NewGeometry(cfg.L, cfg.Z+cfg.S)
	if err != nil {
		return nil, err
	}
	if policy == nil {
		policy = oram.NopPolicy{}
	}
	mem, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:        cfg,
		geo:        geo,
		layout:     tree.NewLayout(geo, cfg.BlockBytes, cfg.DRAM.RowBytes),
		mem:        mem,
		st:         stash.New(cfg.StashCapacity),
		policy:     policy,
		slots:      make([]uint64, geo.NumSlots()),
		valid:      make([]bool, geo.NumSlots()),
		dummiesUp:  make([]uint8, geo.NumBuckets()),
		realsAlive: make([]uint8, geo.NumBuckets()),
		labelRNG:   rng.NewXoshiro(cfg.Seed*0x9e3779b9 + 11),
		slotRNG:    rng.NewXoshiro(cfg.Seed*0x85ebca6b + 12),
		dummyRNG:   rng.NewXoshiro(cfg.Seed*0xc2b2ae35 + 13),
		pathBuf:    make([]int, geo.Levels()),
		locBuf:     make([]dram.Loc, 0, geo.PathLen()),
		doneBuf:    make([]int64, geo.PathLen()),
		poolsBuf:   make([][]uint32, geo.Levels()),
	}
	c.pos = posmap.NewStore(posmap.Direct(cfg.NumDataBlocks()), geo.NumLeaves(), rng.NewXoshiro(cfg.Seed*0x27d4eb2f+14))
	if err := c.initialPlacement(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustNew is New for statically known-good configurations.
func MustNew(cfg Config, policy oram.DupPolicy) *Controller {
	c, err := New(cfg, policy)
	if err != nil {
		panic(err)
	}
	return c
}

// Geometry returns the bucket geometry (Z+S slots per bucket).
func (c *Controller) Geometry() tree.Geometry { return c.geo }

// Stash exposes the stash for policy binding.
func (c *Controller) Stash() *stash.Stash { return c.st }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// MemStats exposes the DRAM counters.
func (c *Controller) MemStats() dram.Stats { return c.mem.Stats() }

// NumDataBlocks returns the data address space size.
func (c *Controller) NumDataBlocks() int { return c.cfg.NumDataBlocks() }

// SetObserver registers the externally-visible-operation callback.
func (c *Controller) SetObserver(fn func(oram.Event)) { c.observer = fn }

// Drain returns the completion cycle of all issued work.
func (c *Controller) Drain() int64 { return c.busyUntil }

// initialPlacement fills the Z real slots of each bucket with the shared
// Path ORAM starting placement (oram.PlaceInitial); every slot starts
// valid, the unfilled ones as dummies.
func (c *Controller) initialPlacement() error {
	occ, err := oram.PlaceInitial(c.geo, c.cfg.Z, c.slots, c.pos.Labels(), c.st, 0)
	if err != nil {
		return err
	}
	for i := range c.valid {
		c.valid[i] = true
	}
	for b, n := range occ {
		c.realsAlive[b] = n
		c.dummiesUp[b] = uint8(c.geo.Z) - n
	}
	return nil
}

// recountBucket refreshes the per-bucket valid-dummy and live-real counts.
// Slots are uniform: a bucket holds at most Z real blocks among its Z+S
// slots, wherever the permutation put them.
func (c *Controller) recountBucket(b int) {
	var dummies, reals uint8
	for s := 0; s < c.cfg.Z+c.cfg.S; s++ {
		i := c.geo.SlotIndex(b, s)
		if !c.valid[i] {
			continue
		}
		if block.Unpack(c.slots[i]).Kind == block.Real {
			reals++
		} else {
			dummies++
		}
	}
	c.dummiesUp[b] = dummies
	c.realsAlive[b] = reals
}
