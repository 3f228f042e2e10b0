package oram

import "shadowblock/internal/block"

// DupPolicy is the hook through which the shadow-block mechanism (package
// core) participates in path writes. Tiny ORAM uses NopPolicy: every free
// slot stays a dummy.
//
// The controller calls, per path write, BeginPathWrite once, then for each
// slot (leaf to root) either NoteEvict (a block was placed) or SelectDup (a
// free slot may receive a shadow), then EndPathWrite. NoteEvict is also
// called for the shadows SelectDup itself creates, so a policy can track
// each block's effective (shallowest-copy) level, as the paper's Fig. 4
// example requires.
//
// The leaf-to-root order is load-bearing: within one path write the level
// passed to NoteEvict and SelectDup never increases (a later call is at the
// same level or closer to the root). The shadow-block policy relies on it
// to turn Rules 1–2 into per-candidate thresholds that, once met, stay met
// for the rest of the write, and it panics on a call deeper than the one
// before it.
type DupPolicy interface {
	// BeginPathWrite starts the bookkeeping for one path write.
	BeginPathWrite(leaf uint32)
	// NoteEvict records that block m was written at the given tree level.
	NoteEvict(m block.Meta, level int)
	// SelectDup picks a block to duplicate into the free slot at the given
	// level of path-leaf, returning its shadow metadata. ok=false keeps the
	// slot a dummy. Implementations must respect Rule-1 (the shadow's label
	// must put it on this bucket) and Rule-2 (level must be strictly above
	// the real copy's placement).
	SelectDup(leaf uint32, level int) (m block.Meta, ok bool)
	// EndPathWrite finishes the path write (queues are cleared, §V-B).
	EndPathWrite()

	// NoteLLCMiss feeds the Hot Address Cache with the program addresses of
	// LLC misses.
	NoteLLCMiss(addr uint32)
	// NoteORAMRequest feeds the DRI counter of dynamic partitioning: one
	// call per ORAM request, real or dummy.
	NoteORAMRequest(dummy bool)

	// ShadowPriority ranks a shadow block arriving in the stash for
	// retention (higher = keep longer); the shadow-block policy answers
	// with the Hot Address Cache count.
	ShadowPriority(addr uint32) uint64
}

// NopPolicy performs no duplication; the controller then behaves exactly
// like Tiny ORAM.
type NopPolicy struct{}

// BeginPathWrite implements DupPolicy.
func (NopPolicy) BeginPathWrite(uint32) {}

// NoteEvict implements DupPolicy.
func (NopPolicy) NoteEvict(block.Meta, int) {}

// SelectDup implements DupPolicy.
func (NopPolicy) SelectDup(uint32, int) (block.Meta, bool) { return block.Meta{}, false }

// EndPathWrite implements DupPolicy.
func (NopPolicy) EndPathWrite() {}

// NoteLLCMiss implements DupPolicy.
func (NopPolicy) NoteLLCMiss(uint32) {}

// NoteORAMRequest implements DupPolicy.
func (NopPolicy) NoteORAMRequest(bool) {}

// ShadowPriority implements DupPolicy.
func (NopPolicy) ShadowPriority(uint32) uint64 { return 0 }
