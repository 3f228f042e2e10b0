package oram

import (
	"shadowblock/internal/dram"
	"shadowblock/internal/metrics"
)

// Decoupled per-bucket writeback scheduling (cfg.WBDecoupled).
//
// The coupled engines retire an eviction's path write as one monolithic
// DRAM batch at eviction time, so the writeback's ~(L+1)*Z accesses sit in
// front of the next path read on every bank they share. The decoupled
// scheduler instead parks one write op per refilled bucket in a queue and
// lets demand path reads reserve DRAM first (read priority); queued ops
// drain in three ways, all of which keep the engine's externally visible
// (kind, leaf, order) touch sequence untouched — only reservation cycles
// move:
//
//   - forced: a queued bucket is about to be read again, so its write must
//     land first (correctness — the tree image was already updated at
//     enqueue time, this is purely the timing model catching up), or the
//     op has been deferred WBMaxDefer eviction phases (starvation bound).
//     Forced ops reserve before the read does.
//   - slotted: after a read has reserved its banks and bus, any queued op
//     whose banks open an idle window (dram.BankFreeAt) under the
//     read's shadow — or, via PumpWritebacks, inside the idle gap before
//     the next demand read presents — retires opportunistically.
//   - flushed: Drain retires whatever is left at end of run.
//
// The queue is bounded by (L+1) buckets per eviction times WBMaxDefer
// phases, every op's locations live in a fixed-size array, and retirement
// compacts the queue in place (wbRetain): the hot path stays
// allocation-free.

// maxBucketSlots bounds Z (Config.Validate caps it at 16) so one bucket's
// slot locations fit a fixed array and enqueueing never allocates.
const maxBucketSlots = 16

// defaultWBMaxDefer is the starvation bound applied when cfg.WBMaxDefer
// is left 0: a queued write retires at most 8 eviction phases after it
// was enqueued, even if its banks never go idle and its bucket is never
// read again.
const defaultWBMaxDefer = 8

// wbOp is one queued per-bucket write: the bucket's off-chip slot
// locations (resolved when the eviction staged its path), the eviction
// phase that produced it, and the cycle its data became ready (the
// earliest cycle the write may occupy DRAM).
type wbOp struct {
	bucket int32
	n      int32
	seq    uint64 // evictCount at enqueue (the starvation-bound clock)
	at     int64  // pathWrite cycle: earliest legal DRAM reservation point
	locs   [maxBucketSlots]dram.Loc
}

// wbState is the decoupled scheduler's queue. ops is FIFO by enqueue
// order; retirement filters in place, so the backing array stabilises at
// the steady-state high-water mark and stops allocating.
type wbState struct {
	ops      []wbOp
	maxDefer uint64
	cost     int64 // conservative per-op DRAM duration (fit checks only)
}

// initWriteback builds the scheduler state; called from New before
// bindEngine when cfg.WBDecoupled is set.
func (c *Controller) initWriteback() {
	c.wb = &wbState{
		ops:      make([]wbOp, 0, c.geo.Levels()*(c.cfg.WBMaxDefer+1)),
		maxDefer: uint64(c.cfg.WBMaxDefer),
		cost:     c.mem.AccessSpan(c.geo.Z),
	}
}

// dispatchWriteQueued is the decoupled engine's dispatchWrite binding:
// instead of reserving the staged writeback on DRAM it splits locBuf
// (z locations per off-chip level, in level order — exactly how stagePath
// staged it) into one op per bucket and parks them. The datapath is done
// the moment the refill decision is made.
func (c *Controller) dispatchWriteQueued(start int64) int64 {
	z := c.geo.Z
	for k, bucket := range c.pathBuf[c.cfg.TreetopLevels:] {
		c.wbEnqueue(int32(bucket), start, c.locBuf[k*z:(k+1)*z])
	}
	return start + 1
}

// wbEnqueue parks one per-bucket write op for bucket, ready at cycle at,
// over the bucket's slot locations. A bucket can never have two pending
// ops — the eviction that refills a bucket first reads its whole path, and
// that read force-retires any older op on it — so a duplicate here means
// the conflict scan failed; it is repaired (retire the stale op
// immediately) and counted as an anomaly rather than corrupting the
// one-op-per-bucket invariant.
func (c *Controller) wbEnqueue(bucket int32, at int64, locs []dram.Loc) {
	for i := range c.wb.ops {
		if c.wb.ops[i].bucket == bucket {
			c.stats.Anomalies++
			c.wbReserve(&c.wb.ops[i], at)
			c.wb.ops = append(c.wb.ops[:i], c.wb.ops[i+1:]...)
			break
		}
	}
	c.wb.ops = append(c.wb.ops, wbOp{bucket: bucket, n: int32(len(locs)), seq: c.evictCount, at: at})
	copy(c.wb.ops[len(c.wb.ops)-1].locs[:], locs)
	c.stats.WBEnqueued++
	if n := len(c.wb.ops); n > c.stats.WBMaxPending {
		c.stats.WBMaxPending = n
	}
}

// wbReserve hands one op to the DRAM model. The reservation enters at
// op.at — the cycle the data was ready — so the bank-state model backfills
// any idle time the bank had since then; per-bank readyAt ordering makes
// this safe against everything already reserved. decision is the cycle
// the scheduler released the op; the op's wait in the queue is charged to
// the writeback_deferred ledger row.
func (c *Controller) wbReserve(op *wbOp, decision int64) int64 {
	end := c.mem.ReserveBatch(op.at, dram.OpWrite, op.locs[:op.n], nil)
	if end > c.wbDrain {
		c.wbDrain = end
	}
	if wait := decision - op.at; wait > 0 {
		c.stats.WBDeferralCycles += uint64(wait)
		c.ledger().AddResource(metrics.ResWritebackDeferred, wait)
	}
	return end
}

// wbRetain compacts the queue in place, keeping the ops for which retire
// returns false; retire reserves whatever it drops. retire inspects each
// op through a pointer into the queue (an op carries a 16-entry location
// array), and a kept op moves only when an earlier one left.
func (c *Controller) wbRetain(retire func(op *wbOp) bool) {
	n := 0
	for i := range c.wb.ops {
		if retire(&c.wb.ops[i]) {
			continue
		}
		if n != i {
			c.wb.ops[n] = c.wb.ops[i]
		}
		n++
	}
	c.wb.ops = c.wb.ops[:n]
}

// wbRetireDue force-retires, at the issue decision of a staged path read,
// every queued op that must not stay deferred: ops whose bucket is on the
// path about to be read (the write has to land before its bucket's next
// read — the correctness rule CheckWritebackInvariants pins), and ops
// that hit the WBMaxDefer starvation bound. They reserve DRAM before the
// read computes its own issue cycle, so the read waits exactly as long as
// the forced writes require and no longer.
func (c *Controller) wbRetireDue(start int64) {
	if len(c.wb.ops) == 0 {
		return
	}
	c.wbRetain(func(op *wbOp) bool {
		due := c.evictCount-op.seq >= c.wb.maxDefer
		if !due {
			for _, b := range c.pathBuf {
				if int32(b) == op.bucket {
					due = true
					break
				}
			}
		}
		if !due {
			return false
		}
		c.wbReserve(op, start)
		c.stats.WBForced++
		if c.mc != nil && c.mc.Trace != nil {
			c.mc.Trace.Instant("wb.forced", "oram", tidBackground, start,
				map[string]any{"bucket": op.bucket, "age": c.evictCount - op.seq})
		}
		return true
	})
}

// wbSlotIdle drains queued ops opportunistically after a path read has
// reserved its banks and bus: any op whose banks open an idle window
// (wbWindow) before the read completes retires under the read's shadow —
// its bank work backfills idle bank time and its bursts queue behind the
// read's on the bus, so the read is never delayed. Ops whose banks stay
// busy past the read's end remain deferred for a later window, the
// conflict rule, or the starvation bound.
func (c *Controller) wbSlotIdle(readEnd int64) {
	if c.wb == nil || len(c.wb.ops) == 0 {
		return
	}
	c.wbRetain(func(op *wbOp) bool {
		win := c.wbWindow(op)
		if win >= readEnd {
			return false
		}
		c.wbSlot(op, win)
		return true
	})
}

// PumpWritebacks drains queued eviction writes into the idle gap that
// closes when a demand read presents at cycle now: only ops whose banks
// are idle early enough that a conservative duration estimate finishes
// before now are slotted, so the arriving read — which has priority — is
// never made to wait. The front end (oram.Queue) calls this on every
// presentation; it is a no-op unless cfg.WBDecoupled queued something.
func (c *Controller) PumpWritebacks(now int64) {
	if c.wb == nil || len(c.wb.ops) == 0 {
		return
	}
	c.wbRetain(func(op *wbOp) bool {
		win := c.wbWindow(op)
		if win+c.wb.cost > now {
			return false
		}
		c.wbSlot(op, win)
		return true
	})
}

// wbSlot retires one op into the idle window opening at win, charging the
// drain span to the writeback_slotted ledger row.
func (c *Controller) wbSlot(op *wbOp, win int64) {
	end := c.wbReserve(op, win)
	c.stats.WBSlotted++
	c.ledger().AddResource(metrics.ResWritebackSlotted, end-win)
	if c.mc != nil && c.mc.Trace != nil {
		c.mc.Trace.Span("wb.slot", "oram", tidBackground, win, end,
			map[string]any{"bucket": op.bucket})
	}
}

// wbWindow is the earliest cycle every bank an op touches has an idle
// window for it (a bucket is one DRAM row, so this is normally a single
// bank's window): reservations only extend bank state forward, so a bank
// is idle from its BankFreeAt on, and never before the op's data is ready.
func (c *Controller) wbWindow(op *wbOp) int64 {
	win := op.at
	for _, l := range op.locs[:op.n] {
		if t := c.mem.BankFreeAt(l); t > win {
			win = t
		}
	}
	return win
}

// wbFlush retires every still-queued op at end of run (Drain): there is
// no further path read to schedule around.
func (c *Controller) wbFlush() {
	if c.wb == nil || len(c.wb.ops) == 0 {
		return
	}
	for i := range c.wb.ops {
		c.wbReserve(&c.wb.ops[i], c.busyUntil)
		c.stats.WBFlushed++
	}
	c.wb.ops = c.wb.ops[:0]
}

// PendingWritebacks reports the queued op count (tests and the live debug
// snapshot; zero for the coupled engines).
func (c *Controller) PendingWritebacks() int {
	if c.wb == nil {
		return 0
	}
	return len(c.wb.ops)
}
