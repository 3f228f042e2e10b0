package stash

import (
	"testing"
	"testing/quick"

	"shadowblock/internal/block"
)

func real(addr, label uint32) Entry {
	return Entry{Meta: block.Meta{Kind: block.Real, Addr: addr, Label: label}}
}

func shadow(addr, label uint32, src uint8) Entry {
	return Entry{Meta: block.Meta{Kind: block.Shadow, Addr: addr, Label: label, SrcLevel: src}}
}

func TestInsertAndLookup(t *testing.T) {
	s := New(4)
	if r := s.Insert(real(1, 10)); r != Inserted {
		t.Fatalf("insert real: %v", r)
	}
	e, ok := s.Lookup(1)
	if !ok || e.Meta.Addr != 1 || e.Meta.Label != 10 {
		t.Fatalf("lookup: %+v ok=%v", e, ok)
	}
	if _, ok := s.Lookup(2); ok {
		t.Fatal("lookup of absent addr succeeded")
	}
	if s.RealCount() != 1 || s.ShadowCount() != 0 || s.Len() != 1 {
		t.Fatalf("counts real=%d shadow=%d len=%d", s.RealCount(), s.ShadowCount(), s.Len())
	}
}

func TestMergeRealOverShadow(t *testing.T) {
	s := New(4)
	s.Insert(shadow(5, 3, 7))
	if r := s.Insert(real(5, 3)); r != MergedReal {
		t.Fatalf("real over shadow: %v", r)
	}
	e, _ := s.Lookup(5)
	if e.Meta.Kind != block.Real {
		t.Fatalf("merged kind = %v", e.Meta.Kind)
	}
	if s.ShadowCount() != 0 || s.RealCount() != 1 {
		t.Fatalf("counts after merge: real=%d shadow=%d", s.RealCount(), s.ShadowCount())
	}
}

func TestShadowDroppedWhenAddressResident(t *testing.T) {
	s := New(4)
	s.Insert(real(5, 3))
	if r := s.Insert(shadow(5, 3, 2)); r != DroppedShadow {
		t.Fatalf("shadow over real: %v", r)
	}
	s.Insert(shadow(6, 1, 2))
	if r := s.Insert(shadow(6, 1, 3)); r != DroppedShadow {
		t.Fatalf("shadow over shadow: %v", r)
	}
	if s.ShadowCount() != 1 {
		t.Fatalf("shadow count = %d", s.ShadowCount())
	}
}

func TestSecondRealKeepsResident(t *testing.T) {
	s := New(4)
	a := real(9, 1)
	a.Data = []byte{1}
	s.Insert(a)
	stale := real(9, 1)
	stale.Data = []byte{2}
	if r := s.Insert(stale); r != MergedReal {
		t.Fatalf("stale real insert: %v", r)
	}
	e, _ := s.Lookup(9)
	if e.Data[0] != 1 {
		t.Fatal("stale tree copy overwrote the newer stash copy")
	}
}

func TestRealDisplacesShadowWhenFull(t *testing.T) {
	s := New(2)
	s.Insert(real(1, 0))
	s.Insert(shadow(2, 0, 5))
	if r := s.Insert(real(3, 0)); r != Inserted {
		t.Fatalf("real should displace shadow: %v", r)
	}
	if _, ok := s.Lookup(2); ok {
		t.Fatal("displaced shadow still resident")
	}
	if _, ok := s.Lookup(3); !ok {
		t.Fatal("new real not resident")
	}
}

func TestOverflowOnlyWhenFullOfReals(t *testing.T) {
	s := New(2)
	s.Insert(real(1, 0))
	s.Insert(real(2, 0))
	if r := s.Insert(real(3, 0)); r != Overflow {
		t.Fatalf("expected overflow, got %v", r)
	}
	if s.Overflows() != 1 {
		t.Fatalf("overflow count = %d", s.Overflows())
	}
}

func prioShadow(addr uint32, prio uint64) Entry {
	e := shadow(addr, 0, 4)
	e.Priority = prio
	return e
}

func TestShadowTurnoverByPriority(t *testing.T) {
	s := New(4) // shadowCap = 3
	s.Insert(real(1, 0))
	s.Insert(prioShadow(2, 5))
	s.Insert(prioShadow(3, 1))
	s.Insert(prioShadow(4, 3))
	// At the shadow cap: a strictly hotter shadow displaces the coldest.
	if r := s.Insert(prioShadow(5, 9)); r != Inserted {
		t.Fatalf("hot shadow not admitted: %v", r)
	}
	if _, ok := s.Lookup(3); ok {
		t.Fatal("coldest shadow not displaced")
	}
	// An equal-priority shadow is dropped: the incumbent stays.
	if r := s.Insert(prioShadow(6, 3)); r != DroppedShadow {
		t.Fatalf("tie displaced the incumbent: %v", r)
	}
	if _, ok := s.Lookup(4); !ok {
		t.Fatal("incumbent lost a tie")
	}
	if _, ok := s.Lookup(1); !ok {
		t.Fatal("real block displaced by a shadow")
	}
}

func TestShadowCapLeavesHeadroomForReals(t *testing.T) {
	s := New(8) // shadowCap = 6
	for i := uint32(0); i < 10; i++ {
		s.Insert(prioShadow(100+i, uint64(i)))
	}
	if s.ShadowCount() != 6 {
		t.Fatalf("shadow count = %d, want cap 6", s.ShadowCount())
	}
	// Reals fill the reserved headroom without displacing shadows.
	s.Insert(real(1, 0))
	s.Insert(real(2, 0))
	if s.ShadowCount() != 6 || s.RealCount() != 2 {
		t.Fatalf("real headroom violated: shadows=%d reals=%d", s.ShadowCount(), s.RealCount())
	}
}

func TestShadowNeverDisplacesReals(t *testing.T) {
	s := New(2)
	s.Insert(real(1, 0))
	s.Insert(real(2, 0))
	if r := s.Insert(shadow(3, 0, 4)); r != DroppedShadow {
		t.Fatalf("shadow into real-full stash: %v", r)
	}
}

func TestTakeAndDrop(t *testing.T) {
	s := New(4)
	s.Insert(real(1, 0))
	s.Insert(real(2, 0))
	s.Insert(shadow(3, 0, 4))
	e, ok := s.Take(1)
	if !ok || e.Meta.Addr != 1 {
		t.Fatalf("take: %+v %v", e, ok)
	}
	if _, ok := s.Lookup(1); ok {
		t.Fatal("taken entry still resident")
	}
	// Swap-with-last must keep the index coherent.
	if _, ok := s.Lookup(2); !ok {
		t.Fatal("unrelated entry lost after Take")
	}
	if _, ok := s.Lookup(3); !ok {
		t.Fatal("unrelated shadow lost after Take")
	}
	s.Drop(3)
	if s.ShadowCount() != 0 || s.RealCount() != 1 {
		t.Fatalf("counts after drop: real=%d shadow=%d", s.RealCount(), s.ShadowCount())
	}
	if _, ok := s.Take(42); ok {
		t.Fatal("Take of absent address succeeded")
	}
}

func TestUpdateAndRelabel(t *testing.T) {
	s := New(4)
	s.Insert(real(1, 10))
	if !s.Update(1, []byte{9}) {
		t.Fatal("update failed")
	}
	if !s.Relabel(1, 77) {
		t.Fatal("relabel failed")
	}
	e, _ := s.Lookup(1)
	if e.Data[0] != 9 || e.Meta.Label != 77 {
		t.Fatalf("after update: %+v", e)
	}
	if s.Update(2, nil) || s.Relabel(2, 0) {
		t.Fatal("mutating an absent address succeeded")
	}
}

func TestHighWaterMarks(t *testing.T) {
	s := New(8)
	for i := uint32(0); i < 5; i++ {
		s.Insert(real(i, 0))
	}
	s.Insert(shadow(100, 0, 3))
	for i := uint32(0); i < 4; i++ {
		s.Take(i)
	}
	if s.MaxRealOccupancy() != 5 {
		t.Fatalf("MaxRealOccupancy = %d, want 5", s.MaxRealOccupancy())
	}
	if s.MaxOccupancy() != 6 {
		t.Fatalf("MaxOccupancy = %d, want 6", s.MaxOccupancy())
	}
}

func TestForEachVariants(t *testing.T) {
	s := New(8)
	s.Insert(real(1, 0))
	s.Insert(shadow(2, 0, 1))
	s.Insert(real(3, 0))
	var reals, shadows, all int
	s.ForEachReal(func(e Entry) { reals++ })
	s.ForEachShadow(func(e Entry) { shadows++ })
	s.ForEach(func(e Entry) { all++ })
	if reals != 2 || shadows != 1 || all != 3 {
		t.Fatalf("foreach counts: reals=%d shadows=%d all=%d", reals, shadows, all)
	}
}

// Property: occupancy counters always match slice contents, and no address
// is ever duplicated, under arbitrary operation sequences.
func TestCountersConsistentUnderRandomOps(t *testing.T) {
	type op struct {
		Action uint8
		Addr   uint32
	}
	f := func(ops []op) bool {
		s := New(16)
		for _, o := range ops {
			addr := o.Addr % 32
			switch o.Action % 4 {
			case 0:
				s.Insert(real(addr, addr))
			case 1:
				s.Insert(shadow(addr, addr, 3))
			case 2:
				s.Take(addr)
			case 3:
				s.Relabel(addr, addr+1)
			}
			// Recount from scratch.
			var r, sh int
			seen := make(map[uint32]bool)
			s.ForEach(func(e Entry) {
				if seen[e.Meta.Addr] {
					t.Errorf("duplicate address %d", e.Meta.Addr)
				}
				seen[e.Meta.Addr] = true
				if e.Meta.Kind == block.Real {
					r++
				} else {
					sh++
				}
			})
			if r != s.RealCount() || sh != s.ShadowCount() || r+sh != s.Len() {
				return false
			}
			if s.Len() > s.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestInsertDummyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inserting a dummy did not panic")
		}
	}()
	New(2).Insert(Entry{Meta: block.DummyMeta})
}

// shadowVictimScan is the linear scan the victim heap replaced, kept as
// the reference: the lowest-priority, then oldest, resident shadow.
func shadowVictimScan(s *Stash) int {
	victim := -1
	for i := range s.entries {
		if s.entries[i].Meta.Kind != block.Shadow {
			continue
		}
		if victim == -1 ||
			s.entries[i].Priority < s.entries[victim].Priority ||
			(s.entries[i].Priority == s.entries[victim].Priority && s.entries[i].seq < s.entries[victim].seq) {
			victim = i
		}
	}
	return victim
}

// TestShadowVictimMatchesScan drives random insert/take/merge sequences
// through a small stash (so it is often full and shadows turn over) and
// checks after every operation that the victim heap names the shadow the
// reference scan picks, and that every resident shadow's heap position
// points back at it.
func TestShadowVictimMatchesScan(t *testing.T) {
	type op struct {
		Action uint8
		Addr   uint8
		Prio   uint8
	}
	f := func(ops []op) bool {
		s := New(12) // shadowCap = 9
		for _, o := range ops {
			addr := uint32(o.Addr % 40)
			prio := uint64(o.Prio % 6) // few values: ties exercise the seq tie-break
			switch o.Action % 5 {
			case 0:
				s.Insert(real(addr, addr)) // merge case 1 when addr is a resident shadow
			case 1, 2:
				s.Insert(prioShadow(addr, prio))
			case 3:
				s.Take(addr)
			case 4:
				s.Relabel(addr, addr+1)
			}
			if got, want := s.shadowVictim(), shadowVictimScan(s); got != want {
				t.Logf("victim = %d, scan = %d", got, want)
				return false
			}
			if len(s.victims) != s.ShadowCount() {
				t.Logf("%d heap nodes for %d shadows", len(s.victims), s.ShadowCount())
				return false
			}
			for i, e := range s.entries {
				if e.Meta.Kind == block.Shadow && s.victims[e.hpos].ent != int32(i) {
					t.Logf("shadow at %d has heap position %d naming entry %d", i, e.hpos, s.victims[e.hpos].ent)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
