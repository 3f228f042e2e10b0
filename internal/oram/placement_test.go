package oram

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"shadowblock/internal/block"
	"shadowblock/internal/posmap"
	"shadowblock/internal/rng"
	"shadowblock/internal/stash"
	"shadowblock/internal/store"
	"shadowblock/internal/tree"
)

// referencePlacement is the per-block greedy PlaceInitial replaced, kept
// as its oracle: for each address in order, walk the label's path from the
// leaf level up through tree.Geometry and take the first bucket holding
// fewer than capacity blocks; a block with no room spills, in order.
func referencePlacement(geo tree.Geometry, capacity int, labels []uint32) ([]uint64, []block.Meta) {
	slots := make([]uint64, geo.NumSlots())
	occ := make([]int, geo.NumBuckets())
	var spilled []block.Meta
	for a, label := range labels {
		m := block.Meta{Kind: block.Real, Addr: uint32(a), Label: label}
		placed := false
		for lv := geo.L; lv >= 0; lv-- {
			b := geo.BucketAt(label, lv)
			if occ[b] < capacity {
				slots[geo.SlotIndex(b, occ[b])] = m.Pack()
				occ[b]++
				placed = true
				break
			}
		}
		if !placed {
			spilled = append(spilled, m)
		}
	}
	return slots, spilled
}

// referenceLabels draws a store's labels the way posmap.NewStore did
// before its batch fill: one Uint64n call per block.
func referenceLabels(n int, numLeaves uint32, r *rng.Xoshiro) []uint32 {
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(r.Uint64n(uint64(numLeaves)))
	}
	return labels
}

func stashMetas(st *stash.Stash) []block.Meta {
	var ms []block.Meta
	st.ForEach(func(e stash.Entry) { ms = append(ms, e.Meta) })
	return ms
}

// TestInitialPlacementMatchesReference pins the shared placement to the
// per-block greedy: the full slot image, the stash entries in order and
// the position-map labels must all be identical. Path ORAM is checked
// through New, across tree heights, bucket sizes (Z=1 and Z=2 spill
// heavily into an exactly sized stash) and both position-map shapes;
// Ring ORAM's Z real slots among Z+S are checked on PlaceInitial directly.
func TestInitialPlacementMatchesReference(t *testing.T) {
	for _, l := range []int{4, 8, 12, 18} {
		for _, z := range []int{1, 2, 5} {
			for _, direct := range []bool{false, true} {
				t.Run(fmt.Sprintf("path/L%d/Z%d/direct=%v", l, z, direct), func(t *testing.T) {
					cfg := Default()
					cfg.L, cfg.Z, cfg.DirectPosMap = l, z, direct
					hier := posmap.Direct(cfg.NumDataBlocks())
					if !direct {
						var err error
						hier, err = posmap.NewHierarchy(cfg.NumDataBlocks(), cfg.PosmapFanout, cfg.OnChipPosMapEntries)
						if err != nil {
							t.Fatal(err)
						}
					}
					geo := tree.Geometry{L: l, Z: z}
					labels := referenceLabels(hier.TotalBlocks(), geo.NumLeaves(), rng.NewXoshiro(cfg.Seed*0xc2b2ae35+3))
					slots, spilled := referencePlacement(geo, z, labels)
					cfg.StashCapacity = max(len(spilled), z*(l+1))

					c, err := New(cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(c.pos.Labels(), labels) {
						t.Fatal("position-map labels differ from repeated Uint64n draws")
					}
					if !slices.Equal(c.store.slots, slots) {
						t.Fatal("slot image differs from the reference placement")
					}
					if got := stashMetas(c.st); !slices.Equal(got, spilled) {
						t.Fatalf("stash holds %d entries, reference spilled %d (or order differs)", len(got), len(spilled))
					}

					// One slot short of the spill must fail, not drop a block.
					if len(spilled) > z*(l+1) {
						cfg.StashCapacity = len(spilled) - 1
						if _, err := New(cfg, nil); err == nil {
							t.Fatalf("stash of %d accepted %d spilled blocks", cfg.StashCapacity, len(spilled))
						}
					}
				})
			}
		}
	}

	// Ring ORAM: Z=4 real slots among Z+S=10, the Ring defaults.
	for _, l := range []int{4, 8, 12} {
		t.Run(fmt.Sprintf("ring/L%d", l), func(t *testing.T) {
			geo := tree.Geometry{L: l, Z: 10}
			labels := referenceLabels(1<<uint(l+2), geo.NumLeaves(), rng.NewXoshiro(uint64(l)))
			slots, spilled := referencePlacement(geo, 4, labels)
			got := make([]uint64, geo.NumSlots())
			st := stash.New(max(len(spilled), 1))
			occ, err := PlaceInitial(geo, 4, got, labels, st, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, slots) {
				t.Fatal("slot image differs from the reference placement")
			}
			if !slices.Equal(stashMetas(st), spilled) {
				t.Fatal("stash entries differ from the reference spill")
			}
			for b, n := range occ {
				for s := 0; s < geo.Z; s++ {
					if real := !block.Unpack(got[geo.SlotIndex(b, s)]).IsDummy(); real != (s < int(n)) {
						t.Fatalf("bucket %d: occupancy %d disagrees with slot %d", b, n, s)
					}
				}
			}
		})
	}
}

// countingBackend counts the bucket operations reaching the wrapped
// backend.
type countingBackend struct {
	store.Backend
	reads  int
	writes map[int]int
}

func (c *countingBackend) ReadBucket(b int) ([][]byte, error) {
	c.reads++
	return c.Backend.ReadBucket(b)
}

func (c *countingBackend) WriteBucket(b int, slots [][]byte) error {
	c.writes[b]++
	return c.Backend.WriteBucket(b, slots)
}

// TestFunctionalConstructionWritesEachBucketOnce pins functional
// construction to one backend write per occupied bucket and no reads, and
// checks that the sealed starting tree opens to zero blocks.
func TestFunctionalConstructionWritesEachBucketOnce(t *testing.T) {
	cfg := testConfig()
	cfg.Functional = true
	geo := tree.Geometry{L: cfg.L, Z: cfg.Z}
	back := &countingBackend{Backend: store.NewMem(geo.NumBuckets(), cfg.Z), writes: make(map[int]int)}
	cfg.Store = back
	c := MustNew(cfg, nil)
	if back.reads != 0 {
		t.Fatalf("construction read %d buckets", back.reads)
	}
	for b := 0; b < geo.NumBuckets(); b++ {
		occupied := c.store.occupancy(b) > 0
		if n := back.writes[b]; n > 1 || (n == 1) != occupied {
			t.Fatalf("bucket %d (occupied=%v) written %d times", b, occupied, n)
		}
	}
	zero := make([]byte, cfg.BlockBytes)
	for addr := uint32(0); addr < uint32(c.NumDataBlocks()); addr += 37 {
		got, ok := c.PeekBlock(addr)
		if !ok || !bytes.Equal(got, zero) {
			t.Fatalf("block %d peeks as %v (found=%v), want zeros", addr, got, ok)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
