package dram

import "testing"

// TestNextIdleWindowTracksBankState pins the scheduler's idle-window
// query, max(from, BankFreeAt): a fresh bank is idle immediately (window =
// from), a bank with reserved work opens its window exactly when its last
// column command retires, and the query never mutates state.
func TestNextIdleWindowTracksBankState(t *testing.T) {
	cfg := DDR3_1333()
	m := MustNew(cfg)
	bank0 := m.Locate(0)
	window := func(l Loc, from int64) int64 { return max64(from, m.BankFreeAt(l)) }

	if got := window(bank0, 500); got != 500 {
		t.Fatalf("fresh bank window = %d, want from = 500", got)
	}

	m.Read(0, 0)
	free := m.BankFreeAt(bank0)
	if free <= 0 {
		t.Fatalf("BankFreeAt = %d after a read", free)
	}
	if got := window(bank0, 0); got != free {
		t.Fatalf("busy bank window = %d, want BankFreeAt = %d", got, free)
	}
	// Asking from a cycle past the bank's backlog returns that cycle.
	if got := window(bank0, free+777); got != free+777 {
		t.Fatalf("late query window = %d, want from = %d", got, free+777)
	}
	// The query is pure: repeating it changes nothing.
	if again := window(bank0, 0); again != free {
		t.Fatalf("repeated query diverged: %d then %d", free, again)
	}
	st := m.Stats()
	if st.Reads != 1 || st.Writes != 0 {
		t.Fatalf("window queries touched the counters: %+v", st)
	}

	// A different bank of the same channel is unaffected by bank 0's work.
	otherBank := m.Locate(uint64(cfg.RowBytes * cfg.Channels))
	if got := window(otherBank, 0); got != 0 {
		t.Fatalf("idle sibling bank window = %d, want 0", got)
	}
}

// TestAccessSpanBoundsReservedWork pins AccessSpan's contract: it is a
// duration upper bound for n accesses to one bank row (a bucket is one
// row) — the true reserved span of such a batch never exceeds it, even
// when the batch has to turn the row around first — and computing it never
// mutates the model.
func TestAccessSpanBoundsReservedWork(t *testing.T) {
	cfg := DDR3_1333()
	m := MustNew(cfg)
	rowStride := uint64(cfg.RowBytes * cfg.Channels * cfg.BanksPerChannel)
	for _, n := range []int{1, 4, 8, 16} {
		span := m.AccessSpan(n)
		if span <= 0 {
			t.Fatalf("AccessSpan(%d) = %d", n, span)
		}
		// Worst case the bound budgets for: a previous write left a
		// different row open and dirty (write recovery + precharge +
		// activate before the batch's column commands can start).
		w := MustNew(cfg)
		w.Write(0, 0)
		start := w.BankFreeAt(w.Locate(0))
		locs := make([]Loc, n)
		for i := range locs {
			locs[i] = w.Locate(rowStride + uint64(i*64)) // one row, not the open one
		}
		end := w.ReserveBatch(start, OpWrite, locs, nil)
		if end-start > span {
			t.Fatalf("n=%d: batch reserved %d cycles, AccessSpan bound %d", n, end-start, span)
		}
	}
	if m.AccessSpan(8) <= m.AccessSpan(1) {
		t.Fatal("AccessSpan not increasing in n")
	}
	if m.Stats().Writes != 0 {
		t.Fatal("AccessSpan mutated the model")
	}
}
