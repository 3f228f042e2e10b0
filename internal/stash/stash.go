// Package stash models the ORAM controller's on-chip stash: a small
// content-addressable memory that temporarily holds blocks between path
// reads and path writes.
//
// The model follows the paper (§II-C, §V-A):
//
//   - A real block written back to the tree is "marked replaceable, which
//     means its position in the stash becomes a free slot". We model that
//     literally: placement removes the entry.
//   - A shadow block is replaceable from the moment it is loaded (Rule-3):
//     it can be displaced by any incoming real block, so shadows can never
//     worsen stash-overflow probability. Until displaced, a shadow still
//     answers lookups — that is how HD-Dup turns duplicated hot data into
//     avoided ORAM requests.
//
// Merge rules (§IV-A): if a real block arrives while a shadow with the same
// address is resident, the shadow is discarded in favour of the real block;
// if a shadow arrives while any same-address entry is resident, the
// incoming shadow is discarded.
package stash

import (
	"fmt"

	"shadowblock/internal/block"
)

// Entry is one stash slot's contents.
type Entry struct {
	Meta block.Meta
	Data []byte // payload; nil in timing-only simulations

	// Priority ranks shadows for retention when the stash is full: the
	// controller fills it from the duplication policy's Hot Address Cache
	// count, so the resident shadow set converges on the hottest blocks
	// (the Hot Address Cache itself is LFU, §V-B). Real blocks ignore it.
	Priority uint64

	seq  uint64 // insertion order; tie-break for shadow turnover
	hpos int32  // a shadow's position in Stash.victims
}

// InsertResult describes what Insert did with a block.
type InsertResult uint8

const (
	// Inserted: the block occupies a slot (possibly after displacing a shadow).
	Inserted InsertResult = iota
	// MergedReal: an incoming real block replaced a resident shadow of the
	// same address (merge case 1).
	MergedReal
	// DroppedShadow: an incoming shadow was discarded because a same-address
	// entry already exists (merge case 2) or no slot was spare for it.
	DroppedShadow
	// Overflow: a real block could not be accommodated. This is the
	// security-parameter failure Path ORAM configurations are sized to make
	// negligible; the caller records it.
	Overflow
)

// Stash is the on-chip block store.
type Stash struct {
	capacity  int
	shadowCap int // max resident shadows; the rest is headroom for reals
	entries   []Entry
	index     map[uint32]int // addr -> position in entries
	// victims is a min-heap over the resident shadows keyed by
	// (Priority, seq), both fixed at insertion: its root is the shadow
	// Rule-3 displacement and shadow turnover replace. It lives beside
	// entries so entries keeps its order (ForEach* callers number
	// candidates by it).
	victims []victimNode

	realCount   int
	shadowCount int
	overflows   int
	maxReal     int
	maxTotal    int
	seq         uint64
}

// New returns a stash that holds at most capacity blocks.
func New(capacity int) *Stash {
	if capacity <= 0 {
		panic(fmt.Sprintf("stash: capacity %d must be positive", capacity))
	}
	return &Stash{
		capacity: capacity,
		// Shadows may not crowd out the transient real blocks an eviction
		// read deposits; without headroom every read-write phase would
		// destroy a slice of the hottest shadows (Rule-3 displacement) and
		// the resident set could never converge on the hot working set.
		shadowCap: capacity * 3 / 4,
		entries:   make([]Entry, 0, capacity),
		index:     make(map[uint32]int, capacity),
		victims:   make([]victimNode, 0, capacity),
	}
}

// Len returns the number of occupied slots (reals + shadows).
func (s *Stash) Len() int { return len(s.entries) }

// RealCount returns the number of resident real blocks.
func (s *Stash) RealCount() int { return s.realCount }

// ShadowCount returns the number of resident shadow blocks.
func (s *Stash) ShadowCount() int { return s.shadowCount }

// Capacity returns the configured capacity.
func (s *Stash) Capacity() int { return s.capacity }

// Overflows returns how many real-block insertions failed.
func (s *Stash) Overflows() int { return s.overflows }

// MaxRealOccupancy returns the high-water mark of resident real blocks.
func (s *Stash) MaxRealOccupancy() int { return s.maxReal }

// MaxOccupancy returns the high-water mark of total occupied slots.
func (s *Stash) MaxOccupancy() int { return s.maxTotal }

// Lookup returns the entry holding addr, if any. The second result
// reports whether it was found. The returned entry is a copy; use Update or
// Relabel to mutate the resident block.
func (s *Stash) Lookup(addr uint32) (Entry, bool) {
	i, ok := s.index[addr]
	if !ok {
		return Entry{}, false
	}
	return s.entries[i], true
}

// Insert applies the merge rules and stores e if appropriate.
func (s *Stash) Insert(e Entry) InsertResult {
	switch e.Meta.Kind {
	case block.Real:
		return s.insertReal(e)
	case block.Shadow:
		return s.insertShadow(e)
	default:
		panic("stash: inserting a dummy block")
	}
}

func (s *Stash) insertReal(e Entry) InsertResult {
	if i, ok := s.index[e.Meta.Addr]; ok {
		old := s.entries[i]
		if old.Meta.Kind == block.Real {
			// A second real copy of the same address can only arrive if the
			// stash copy superseded the tree copy (a write hit on a block
			// whose stale tree copy is only now being collected by a path
			// read). Keep the resident, newer block.
			return MergedReal
		}
		// Merge case 1: the real block replaces its shadow in place.
		s.victimRemove(int(old.hpos))
		s.entries[i] = e
		s.shadowCount--
		s.realCount++
		s.noteHighWater()
		return MergedReal
	}
	if len(s.entries) < s.capacity {
		s.append(e)
		return Inserted
	}
	// Displace a shadow (Rule-3): any shadow may be replaced; pick the
	// least valuable one (lowest priority, then oldest).
	if vi := s.shadowVictim(); vi >= 0 {
		s.victimRemove(0)
		delete(s.index, s.entries[vi].Meta.Addr)
		s.seq++
		e.seq = s.seq
		s.entries[vi] = e
		s.index[e.Meta.Addr] = vi
		s.shadowCount--
		s.realCount++
		s.noteHighWater()
		return Inserted
	}
	s.overflows++
	return Overflow
}

// shadowVictim returns the index of the lowest-priority (then oldest)
// resident shadow, or -1 when none is resident.
func (s *Stash) shadowVictim() int {
	if len(s.victims) == 0 {
		return -1
	}
	return int(s.victims[0].ent)
}

func (s *Stash) insertShadow(e Entry) InsertResult {
	if _, ok := s.index[e.Meta.Addr]; ok {
		// Merge case 2: a same-address entry (real or shadow) exists; the
		// incoming copy is redundant by the one-version invariant.
		return DroppedShadow
	}
	if len(s.entries) >= s.capacity || s.shadowCount >= s.shadowCap {
		// Shadows never displace real blocks, but among themselves the
		// lowest-priority (then oldest) resident makes room — an LFU-style
		// turnover that converges the resident set on the hottest blocks.
		// Without turnover the set would freeze on the first shadows ever
		// loaded and stop tracking the workload.
		victim := s.shadowVictim()
		// Strictly-greater priority required: on ties the incumbent stays,
		// otherwise equal-priority hot shadows endlessly displace each
		// other and the resident set never converges.
		if victim == -1 || s.entries[victim].Priority >= e.Priority {
			return DroppedShadow
		}
		delete(s.index, s.entries[victim].Meta.Addr)
		s.seq++
		e.seq = s.seq
		s.entries[victim] = e
		s.index[e.Meta.Addr] = victim
		// The newcomer outranks the root it replaced, so it can only sink.
		s.victims[0] = victimNode{prio: e.Priority, seq: e.seq, ent: int32(victim)}
		s.victimDown(0)
		return Inserted
	}
	s.append(e)
	return Inserted
}

func (s *Stash) append(e Entry) {
	s.seq++
	e.seq = s.seq
	s.entries = append(s.entries, e)
	s.index[e.Meta.Addr] = len(s.entries) - 1
	if e.Meta.Kind == block.Real {
		s.realCount++
	} else {
		s.shadowCount++
		s.victims = append(s.victims, victimNode{prio: e.Priority, seq: e.seq, ent: int32(len(s.entries) - 1)})
		s.victimUp(len(s.victims) - 1)
	}
	s.noteHighWater()
}

func (s *Stash) noteHighWater() {
	if s.realCount > s.maxReal {
		s.maxReal = s.realCount
	}
	if len(s.entries) > s.maxTotal {
		s.maxTotal = len(s.entries)
	}
}

// Occupancy is a point-in-time snapshot of the stash's fill state, the
// observability layer's stash-pressure signal.
type Occupancy struct {
	Real     int // resident real blocks
	Shadow   int // resident shadow blocks
	Capacity int
	MaxReal  int // high-water mark of real blocks
	MaxTotal int // high-water mark of total occupancy
}

// Snapshot returns the current occupancy.
func (s *Stash) Snapshot() Occupancy {
	return Occupancy{
		Real:     s.realCount,
		Shadow:   s.shadowCount,
		Capacity: s.capacity,
		MaxReal:  s.maxReal,
		MaxTotal: s.maxTotal,
	}
}

// Update overwrites the payload of the resident block holding addr.
// It reports whether the block was present.
func (s *Stash) Update(addr uint32, data []byte) bool {
	i, ok := s.index[addr]
	if !ok {
		return false
	}
	s.entries[i].Data = data
	return true
}

// Relabel assigns a new leaf label to the resident block holding addr.
// It reports whether the block was present.
func (s *Stash) Relabel(addr, label uint32) bool {
	i, ok := s.index[addr]
	if !ok {
		return false
	}
	s.entries[i].Meta.Label = label
	return true
}

// Take removes and returns the entry holding addr.
func (s *Stash) Take(addr uint32) (Entry, bool) {
	i, ok := s.index[addr]
	if !ok {
		return Entry{}, false
	}
	e := s.entries[i]
	s.removeAt(i)
	return e, true
}

// Drop removes the entry holding addr if present (used to discard shadows).
func (s *Stash) Drop(addr uint32) { s.Take(addr) }

func (s *Stash) removeAt(i int) {
	e := s.entries[i]
	delete(s.index, e.Meta.Addr)
	if e.Meta.Kind == block.Shadow {
		s.victimRemove(int(e.hpos))
	}
	last := len(s.entries) - 1
	if i != last {
		s.entries[i] = s.entries[last]
		s.index[s.entries[i].Meta.Addr] = i
		if s.entries[i].Meta.Kind == block.Shadow {
			s.victims[s.entries[i].hpos].ent = int32(i)
		}
	}
	s.entries = s.entries[:last]
	if e.Meta.Kind == block.Real {
		s.realCount--
	} else {
		s.shadowCount--
	}
}

// ForEach visits every resident entry in a deterministic order. The
// callback must not mutate the stash; collect addresses and use Take
// afterwards instead.
func (s *Stash) ForEach(fn func(Entry)) {
	for i := range s.entries {
		fn(s.entries[i])
	}
}

// ForEachReal visits every resident real block in a deterministic order.
func (s *Stash) ForEachReal(fn func(Entry)) {
	for i := range s.entries {
		if s.entries[i].Meta.Kind == block.Real {
			fn(s.entries[i])
		}
	}
}

// ForEachShadow visits every resident shadow block in a deterministic order.
func (s *Stash) ForEachShadow(fn func(Entry)) {
	for i := range s.entries {
		if s.entries[i].Meta.Kind == block.Shadow {
			fn(s.entries[i])
		}
	}
}

// victimNode is one resident shadow in the victim heap.
type victimNode struct {
	prio uint64 // the entry's Priority
	seq  uint64 // the entry's insertion order
	ent  int32  // the entry's position in entries
}

func (a victimNode) less(b victimNode) bool {
	return a.prio < b.prio || (a.prio == b.prio && a.seq < b.seq)
}

// victimRemove deletes heap node i; the last node fills the hole.
func (s *Stash) victimRemove(i int) {
	last := len(s.victims) - 1
	n := s.victims[last]
	s.victims = s.victims[:last]
	if i == last {
		return
	}
	s.victims[i] = n
	if i > 0 && n.less(s.victims[(i-1)/2]) {
		s.victimUp(i)
	} else {
		s.victimDown(i)
	}
}

func (s *Stash) victimUp(i int) {
	h := s.victims
	n := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !n.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		s.entries[h[i].ent].hpos = int32(i)
		i = parent
	}
	h[i] = n
	s.entries[n.ent].hpos = int32(i)
}

func (s *Stash) victimDown(i int) {
	h := s.victims
	n := h[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].less(h[child]) {
			child = r
		}
		if !h[child].less(n) {
			break
		}
		h[i] = h[child]
		s.entries[h[i].ent].hpos = int32(i)
		i = child
	}
	h[i] = n
	s.entries[n.ent].hpos = int32(i)
}
