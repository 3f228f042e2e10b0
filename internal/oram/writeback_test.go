package oram

import (
	"slices"
	"testing"

	"shadowblock/internal/dram"
	"shadowblock/internal/rng"
)

func decoupledConfig() Config {
	cfg := testConfig()
	cfg.WBDecoupled = true
	return cfg
}

// TestDecoupledTouchSequenceUnchanged is the decoupled scheduler's security
// argument as an executable check: deferring per-bucket writeback
// reservations may move DRAM *cycles*, but never which physical locations
// an engine touches or in what order. For every engine shape and core
// count, the (kind, leaf) event trace with the scheduler on must be
// identical to the coupled trace under the same request schedule.
func TestDecoupledTouchSequenceUnchanged(t *testing.T) {
	engines := []struct {
		name     string
		pipe     bool
		channels int
	}{
		{"serial", false, 0},
		{"serial-c1", false, 1},
		{"serial-c4", false, 4},
		{"pipe", true, 0},
		{"pipe-c1", true, 1},
		{"pipe-c4", true, 4},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Pipeline = eng.pipe
			cfg.Channels = eng.channels
			for _, cores := range []int{1, 2, 4} {
				ref := queueTrace(t, cfg, cores, 400, 131)
				wbd := cfg
				wbd.WBDecoupled = true
				got := queueTrace(t, wbd, cores, 400, 131)
				if len(got) != len(ref) {
					t.Fatalf("cores=%d: decoupled trace length %d, coupled %d", cores, len(got), len(ref))
				}
				for i := range got {
					if got[i].Kind != ref[i].Kind || got[i].Leaf != ref[i].Leaf {
						t.Fatalf("cores=%d: event %d touches a different location: %+v vs %+v",
							cores, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// TestDecoupledInvariantsAndAccounting drives a decoupled controller
// through a long random run, checking the scheduler's structural
// invariants at quiescent points throughout, then drains and verifies the
// retirement accounting closes with nothing left queued.
func TestDecoupledInvariantsAndAccounting(t *testing.T) {
	cfg := decoupledConfig()
	cfg.Pipeline = true
	c := MustNew(cfg, nil)
	r := rng.NewXoshiro(23)
	space := uint64(c.NumDataBlocks())
	var now int64
	for i := 0; i < 1500; i++ {
		out := c.Request(now, uint32(r.Uint64n(space)), i%3 == 0)
		now = out.Done + int64(r.Uint64n(300))
		if i%100 == 0 {
			if err := c.CheckWritebackInvariants(); err != nil {
				t.Fatalf("after request %d: %v", i, err)
			}
		}
	}
	st := c.Stats()
	if st.WBEnqueued == 0 {
		t.Fatal("decoupled run enqueued no writebacks")
	}
	if st.WBForced == 0 {
		// The root bucket is on every path, so the first path read after
		// any eviction must force-retire the root's queued write: a run
		// with evictions but no forced retires means the conflict rule
		// (write lands before its bucket's next read) never fired.
		t.Fatal("no conflict/starvation retires in a run with evictions")
	}
	if err := c.CheckWritebackInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	c.Drain()
	if n := c.PendingWritebacks(); n != 0 {
		t.Fatalf("%d writebacks still pending after Drain", n)
	}
	st = c.Stats()
	if st.WBEnqueued != st.WBSlotted+st.WBForced+st.WBFlushed {
		t.Fatalf("retirement accounting open after Drain: %d enqueued, %d+%d+%d retired",
			st.WBEnqueued, st.WBSlotted, st.WBForced, st.WBFlushed)
	}
	if err := c.CheckWritebackInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoupledSameDRAMTraffic pins that deferral only moves reservations
// in time: the decoupled engine performs exactly the DRAM read and write
// operations the coupled one does, and the same number of evictions.
func TestDecoupledSameDRAMTraffic(t *testing.T) {
	run := func(cfg Config) (Stats, uint64, uint64) {
		c := MustNew(cfg, nil)
		r := rng.NewXoshiro(77)
		space := uint64(c.NumDataBlocks())
		var now int64
		for i := 0; i < 800; i++ {
			out := c.Request(now, uint32(r.Uint64n(space)), i%4 == 0)
			now = out.Done + 50
		}
		c.Drain()
		m := c.MemStats()
		return c.Stats(), m.Reads, m.Writes
	}
	base, br, bw := run(testConfig())
	dec, dr, dw := run(decoupledConfig())
	if br != dr || bw != dw {
		t.Fatalf("DRAM traffic differs: coupled %d reads/%d writes, decoupled %d/%d", br, bw, dr, dw)
	}
	if base.EvictionPhases != dec.EvictionPhases || base.ORAMAccesses != dec.ORAMAccesses {
		t.Fatalf("access counts differ: coupled %d evictions/%d accesses, decoupled %d/%d",
			base.EvictionPhases, base.ORAMAccesses, dec.EvictionPhases, dec.ORAMAccesses)
	}
}

// TestQueueSameCycleOrderWithDecoupledWritebacks is the front end's
// arbitration property under the decoupled scheduler: coalesced misses and
// deferred writebacks must never reorder two same-cycle demand requests
// across cores. Requests present in deterministic (cycle, core) order; the
// ones that reach the memory system must be *served* in that same order
// (nondecreasing forward cycles), with or without the scheduler, and the
// touch traces must match event-for-event.
func TestQueueSameCycleOrderWithDecoupledWritebacks(t *testing.T) {
	const cores, rounds = 4, 120
	type result struct {
		forwards []int64 // serve order of requests that reached the controller
		events   []Event
	}
	run := func(cfg Config) result {
		ctrl := MustNew(cfg, nil)
		var res result
		ctrl.SetObserver(func(e Event) { res.events = append(res.events, e) })
		q := NewQueue(ctrl, cores)
		r := rng.NewXoshiro(41)
		space := uint64(ctrl.NumDataBlocks())
		for i := 0; i < rounds; i++ {
			now := int64(i) * 2500
			// A shared hot address every few rounds makes same-cycle
			// presentations coalesce; the rest are distinct demand misses.
			hot := uint32(r.Uint64n(space))
			for core := 0; core < cores; core++ {
				addr := uint32(r.Uint64n(space))
				if i%3 == 0 && core%2 == 1 {
					addr = hot
				}
				before := ctrl.Stats().Requests
				fwd, _ := q.Issue(now, core, addr, false)
				if ctrl.Stats().Requests > before {
					// Reached the controller (not coalesced, not on-chip).
					res.forwards = append(res.forwards, fwd)
				}
			}
		}
		return res
	}

	coupled := run(testConfig())
	decoupled := run(decoupledConfig())

	for name, res := range map[string]result{"coupled": coupled, "decoupled": decoupled} {
		for i := 1; i < len(res.forwards); i++ {
			if res.forwards[i] < res.forwards[i-1] {
				t.Fatalf("%s: request %d served before its predecessor (forward %d < %d): presentation order broken",
					name, i, res.forwards[i], res.forwards[i-1])
			}
		}
	}
	if len(coupled.forwards) != len(decoupled.forwards) {
		t.Fatalf("different request counts reached the controller: %d coupled, %d decoupled",
			len(coupled.forwards), len(decoupled.forwards))
	}
	if len(coupled.events) != len(decoupled.events) {
		t.Fatalf("trace lengths differ: %d coupled, %d decoupled", len(coupled.events), len(decoupled.events))
	}
	for i := range coupled.events {
		if coupled.events[i].Kind != decoupled.events[i].Kind || coupled.events[i].Leaf != decoupled.events[i].Leaf {
			t.Fatalf("event %d diverges: %+v vs %+v", i, coupled.events[i], decoupled.events[i])
		}
	}
}

// TestCoupledControllerWritebackAPIInert pins the API contract for the
// coupled engines: the scheduler accessors are safe no-ops.
func TestCoupledControllerWritebackAPIInert(t *testing.T) {
	c := MustNew(testConfig(), nil)
	c.PumpWritebacks(1000)
	if n := c.PendingWritebacks(); n != 0 {
		t.Fatalf("coupled controller reports %d pending writebacks", n)
	}
	if err := c.CheckWritebackInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.WBEnqueued != 0 || st.WBSlotted != 0 {
		t.Fatalf("coupled controller counted writeback scheduling: %+v", st)
	}
}

// TestWBRetainCompactsInOrder pins the in-place compaction every
// retirement pass shares: whatever pattern of ops retires, each op is
// offered once in FIFO order, and the kept ops stay in FIFO order with
// their contents intact.
func TestWBRetainCompactsInOrder(t *testing.T) {
	c := MustNew(decoupledConfig(), nil)
	c.wb.ops = c.wb.ops[:0]
	for b := int32(0); b < 10; b++ {
		op := wbOp{bucket: b, n: 1, at: int64(100 + b)}
		op.locs[0] = dram.Loc{Row: int64(b)}
		c.wb.ops = append(c.wb.ops, op)
	}
	var offered []int32
	c.wbRetain(func(op *wbOp) bool {
		offered = append(offered, op.bucket)
		return op.bucket%3 == 0 || op.bucket == 4
	})
	if want := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(offered, want) {
		t.Fatalf("ops offered %v, want %v", offered, want)
	}
	var kept []int32
	for _, op := range c.wb.ops {
		if op.at != int64(100+op.bucket) || op.locs[0].Row != int64(op.bucket) {
			t.Fatalf("kept op for bucket %d corrupted: %+v", op.bucket, op)
		}
		kept = append(kept, op.bucket)
	}
	if want := []int32{1, 2, 5, 7, 8}; !slices.Equal(kept, want) {
		t.Fatalf("kept %v, want %v", kept, want)
	}
}
