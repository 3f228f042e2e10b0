package tree

import "fmt"

// Layout maps buckets of an ORAM tree to physical DRAM byte addresses using
// the subtree layout of Ren et al. (ISCA'13): the tree is partitioned into
// aligned subtrees of SubtreeHeight levels, and each subtree's buckets are
// stored contiguously so that one subtree fits inside (at most) one DRAM
// row. A path access then touches roughly (L+1)/SubtreeHeight rows instead
// of L+1, which is what makes high DRAM utilisation possible.
//
// A layout built by NewChannelLayout additionally pins each subtree band to
// a DRAM channel, round-robin by band, so the rows of any single path are
// spread evenly across all channels instead of landing wherever the plain
// row-interleaving happens to put them.
type Layout struct {
	geo           Geometry
	BlockBytes    int // bytes per block (ciphertext)
	SubtreeHeight int // levels per subtree
	// Channels > 0 selects the channel-interleaved placement; 0 is the
	// plain contiguous-subtree layout.
	Channels    int
	bucketBytes int
	rowBytes    int
	// bandSlotStart[b] is, for the channel owning band b, the per-channel
	// subtree slot index of band b's first subtree (channel mode only).
	bandSlotStart []int
	// levels[lv] is level lv's placement, fixed at construction so that
	// BucketAddr is a table lookup plus shifts and multiplies: no loop over
	// bands and no division by SubtreeHeight on the request path.
	levels []levelPlace
	// stride is the address step between consecutive subtrees of one band:
	// a padded subtree in the plain layout, one row per channel in the
	// channel-interleaved one.
	stride uint64
}

// levelPlace is one tree level's share of the layout: the level's depth
// inside its subtree band, and the address of the band's first subtree.
type levelPlace struct {
	local uint
	base  uint64
}

// NewLayout builds a subtree layout for geometry geo with the given block
// size, choosing the largest subtree height whose buckets fit in rowBytes.
func NewLayout(geo Geometry, blockBytes, rowBytes int) Layout {
	bucketBytes := geo.Z * blockBytes
	h := 1
	for (1<<(h+1))-1 <= rowBytes/bucketBytes && h < geo.L+1 {
		h++
	}
	// Subtrees are padded to the row size so each lives in exactly one DRAM
	// row: a path access then opens one row per SubtreeHeight levels. The
	// padding is the storage cost of the layout (Ren et al. size subtrees
	// to rows for the same reason).
	stride := ((1 << h) - 1) * bucketBytes
	if stride < rowBytes {
		stride = rowBytes
	}
	ly := Layout{
		geo:           geo,
		BlockBytes:    blockBytes,
		SubtreeHeight: h,
		bucketBytes:   bucketBytes,
		stride:        uint64(stride),
		levels:        make([]levelPlace, geo.Levels()),
	}
	// Subtrees are numbered breadth-first: a band's first subtree comes
	// after every subtree of the shallower bands (band b holds 2^(b*h)).
	var before uint64
	for lv := range ly.levels {
		if lv > 0 && lv%h == 0 {
			before += 1 << uint((lv/h-1)*h)
		}
		ly.levels[lv] = levelPlace{local: uint(lv % h), base: before * ly.stride}
	}
	return ly
}

// NewChannelLayout builds a channel-interleaved subtree layout: subtree
// band b (levels [b*h, (b+1)*h)) lives on channel b mod channels, and the
// row indices chosen for a band's subtrees are congruent to that channel
// under the memory system's rowIdx-mod-channels interleaving. A path
// touches one subtree per band, so its ~(L+1)/h rows split across the
// channels as evenly as arithmetic allows, instead of queueing on one bus.
//
// With channels = 1 the produced byte addresses are identical to
// NewLayout's, which is what pins the single-channel engine to the legacy
// timing. A bucket must fit in one DRAM row (the subtree height the plain
// layout would pick already guarantees a whole subtree does).
func NewChannelLayout(geo Geometry, blockBytes, rowBytes, channels int) (Layout, error) {
	bucketBytes := geo.Z * blockBytes
	if channels < 1 {
		return Layout{}, fmt.Errorf("tree: channel layout needs channels >= 1, got %d", channels)
	}
	if bucketBytes > rowBytes {
		return Layout{}, fmt.Errorf("tree: bucket (%d B) exceeds a DRAM row (%d B); the channel-interleaved layout stores whole subtrees per row", bucketBytes, rowBytes)
	}
	ly := NewLayout(geo, blockBytes, rowBytes)
	ly.Channels = channels
	ly.rowBytes = rowBytes

	// Per-channel slot numbering: band b holds 2^(b*h) subtrees; a band's
	// first subtree sits after every earlier band on the same channel.
	numBands := (geo.L + ly.SubtreeHeight) / ly.SubtreeHeight
	ly.bandSlotStart = make([]int, numBands)
	perChannel := make([]int, channels)
	for b := 0; b < numBands; b++ {
		ch := b % channels
		ly.bandSlotStart[b] = perChannel[ch]
		perChannel[ch] += 1 << uint(b*ly.SubtreeHeight)
	}
	// One subtree per row; a band's row indices are congruent to its
	// channel, so the memory system's rowIdx-mod-channels interleaving
	// lands each subtree exactly there.
	ly.stride = uint64(channels) * uint64(rowBytes)
	for lv := range ly.levels {
		b := lv / ly.SubtreeHeight
		row := ly.bandSlotStart[b]*channels + b%channels
		ly.levels[lv].base = uint64(row) * uint64(rowBytes)
	}
	return ly, nil
}

// ChannelOf returns the DRAM channel the bucket's subtree is pinned to.
// Only meaningful for channel-interleaved layouts; the plain layout leaves
// channel selection to the memory system's row interleaving and returns 0.
func (ly *Layout) ChannelOf(bucket int) int {
	if ly.Channels <= 0 {
		return 0
	}
	return (ly.geo.BucketLevel(bucket) / ly.SubtreeHeight) % ly.Channels
}

// BucketAddr returns the physical byte address of the first block of the
// given bucket.
//
// The bucket's level selects its band's placement; its position within the
// level splits into the subtree it belongs to (pos >> local) and its local
// heap index inside that subtree. Buckets within a subtree are stored in
// local heap order.
func (ly *Layout) BucketAddr(bucket int) uint64 {
	level := ly.geo.BucketLevel(bucket)
	pos := bucket - ((1 << uint(level)) - 1) // position within level
	lp := ly.levels[level]
	subRootPos := pos >> lp.local
	localIdx := (1 << lp.local) - 1 + pos&(1<<lp.local-1)
	return lp.base + uint64(subRootPos)*ly.stride + uint64(localIdx)*uint64(ly.bucketBytes)
}

// SlotAddr returns the physical byte address of slot s of bucket b.
func (ly *Layout) SlotAddr(bucket, slot int) uint64 {
	return ly.BucketAddr(bucket) + uint64(slot)*uint64(ly.BlockBytes)
}

// TotalBytes returns the physical footprint of the whole tree.
func (ly *Layout) TotalBytes() uint64 {
	if ly.Channels > 0 {
		// The footprint ends one past the last bucket of whichever band's
		// final subtree owns the highest address: its row, plus the bytes of
		// the subtree's buckets (a band deeper than the tree's remaining
		// levels holds truncated subtrees). Matches the legacy layout's
		// last-slot arithmetic when Channels is 1.
		h := ly.SubtreeHeight
		var end uint64
		for b, start := range ly.bandSlotStart {
			slots := 1 << uint(b*h)
			lastRow := (start+slots-1)*ly.Channels + b%ly.Channels
			levels := h
			if rem := ly.geo.L + 1 - b*h; rem < levels {
				levels = rem
			}
			buckets := (1 << uint(levels)) - 1
			if e := uint64(lastRow)*uint64(ly.rowBytes) + uint64(buckets)*uint64(ly.bucketBytes); e > end {
				end = e
			}
		}
		return end
	}
	// Address one past the last slot of the last bucket.
	last := ly.geo.NumBuckets() - 1
	return ly.SlotAddr(last, ly.geo.Z-1) + uint64(ly.BlockBytes)
}
