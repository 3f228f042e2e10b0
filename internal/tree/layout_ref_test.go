package tree

import (
	"fmt"
	"testing"
)

// referenceBucketAddr is the loop-and-divide BucketAddr the per-level
// tables replaced: band and local level by division, the plain layout's
// subtree number by summing every shallower band. rowBytes is the row size
// the layout was built with.
func referenceBucketAddr(ly *Layout, rowBytes, bucket int) uint64 {
	level := ly.geo.BucketLevel(bucket)
	pos := bucket - ((1 << level) - 1)

	h := ly.SubtreeHeight
	band := level / h
	local := level % h
	subRootPos := pos >> uint(local)
	localIdx := (1 << uint(local)) - 1 + (pos - subRootPos<<uint(local))

	if ly.Channels > 0 {
		ch := band % ly.Channels
		slot := ly.bandSlotStart[band] + subRootPos
		row := slot*ly.Channels + ch
		return uint64(row)*uint64(rowBytes) + uint64(localIdx)*uint64(ly.bucketBytes)
	}

	subtreeBytes := ((1 << uint(h)) - 1) * ly.bucketBytes
	if subtreeBytes < rowBytes {
		subtreeBytes = rowBytes
	}
	var before int
	for b := 0; b < band; b++ {
		before += 1 << uint(b*h)
	}
	return uint64(before+subRootPos)*uint64(subtreeBytes) + uint64(localIdx)*uint64(ly.bucketBytes)
}

// TestBucketAddrMatchesReference checks every bucket of every tree with
// L in [4, 12] against the reference, for the plain layout and the
// channel-interleaved one at 1-4 channels, across subtree heights from 1
// (a bucket larger than a row) to the full 8 KB-row height.
func TestBucketAddrMatchesReference(t *testing.T) {
	shapes := []struct {
		name                 string
		z, blockBytes, row   int
		wantHeight1, channel bool
	}{
		{name: "z5-64B-8K", z: 5, blockBytes: 64, row: 8192, channel: true},
		{name: "z4-64B-1K", z: 4, blockBytes: 64, row: 1024, channel: true},
		{name: "z3-128B-2K", z: 3, blockBytes: 128, row: 2048, channel: true},
		{name: "z5-4K-8K", z: 5, blockBytes: 4096, row: 8192, wantHeight1: true},
	}
	for _, sh := range shapes {
		for l := 4; l <= 12; l++ {
			geo, err := NewGeometry(l, sh.z)
			if err != nil {
				t.Fatal(err)
			}
			layouts := map[string]Layout{"plain": NewLayout(geo, sh.blockBytes, sh.row)}
			if sh.wantHeight1 && layouts["plain"].SubtreeHeight != 1 {
				t.Fatalf("%s: subtree height %d, want 1 for a bucket larger than a row", sh.name, layouts["plain"].SubtreeHeight)
			}
			if sh.channel {
				for ch := 1; ch <= 4; ch++ {
					ly, err := NewChannelLayout(geo, sh.blockBytes, sh.row, ch)
					if err != nil {
						t.Fatal(err)
					}
					layouts[fmt.Sprintf("%dch", ch)] = ly
				}
			}
			for name, ly := range layouts {
				for b := 0; b < geo.NumBuckets(); b++ {
					if got, want := ly.BucketAddr(b), referenceBucketAddr(&ly, sh.row, b); got != want {
						t.Fatalf("%s L=%d %s: BucketAddr(%d) = %d, reference %d", sh.name, l, name, b, got, want)
					}
				}
			}
		}
	}
}
