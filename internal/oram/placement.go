package oram

import (
	"fmt"

	"shadowblock/internal/block"
	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// PlaceInitial builds the starting tree both engines share: the state after
// the one-time oblivious initialisation pass. Blocks are taken in address
// order; block a (label labels[a]) goes to the deepest bucket on its
// label's path holding fewer than capacity blocks, filling that bucket's
// slots from slot 0. A block whose whole path is full spills to st, in
// address order, carrying a fresh zeroed payload of dataBytes (nil when
// dataBytes is 0, as in timing-only simulations).
//
// slots is the packed slot image, geo.Z slots per bucket, and must be all
// dummies (zero) on entry. capacity is the number of real blocks a bucket
// may hold: geo.Z for Path ORAM, Z of Ring ORAM's Z+S slots. The result is
// each bucket's real-block count. A spill the stash cannot hold is an
// error: a tree that silently lost blocks would serve wrong data.
func PlaceInitial(geo tree.Geometry, capacity int, slots []uint64, labels []uint32, st *stash.Stash, dataBytes int) ([]uint8, error) {
	if capacity < 1 || capacity > geo.Z {
		return nil, fmt.Errorf("oram: placement capacity %d outside [1,%d]", capacity, geo.Z)
	}
	occ := make([]uint8, geo.NumBuckets())
	stride, limit := geo.Z, uint8(capacity)
	firstLeaf := int(geo.NumLeaves()) - 1 // heap index of leaf 0's bucket
next:
	for a, label := range labels {
		// Walk the path leaf to root through heap parents: bucket b at
		// level lv has its parent (b-1)/2 at level lv-1.
		for b := firstLeaf + int(label); ; b = (b - 1) >> 1 {
			if o := occ[b]; o < limit {
				slots[b*stride+int(o)] = block.Meta{Kind: block.Real, Addr: uint32(a), Label: label}.Pack()
				occ[b] = o + 1
				continue next
			}
			if b == 0 {
				break
			}
		}
		e := stash.Entry{Meta: block.Meta{Kind: block.Real, Addr: uint32(a), Label: label}}
		if dataBytes > 0 {
			e.Data = make([]byte, dataBytes)
		}
		if st.Insert(e) == stash.Overflow {
			return nil, fmt.Errorf("oram: initial placement overflowed the stash (capacity %d) at block %d", st.Capacity(), a)
		}
	}
	return occ, nil
}
