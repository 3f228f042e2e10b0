package oram

import (
	"shadowblock/internal/dram"
	"shadowblock/internal/metrics"
)

// Path-read stage: stage the off-chip slot locations of one path, decide
// when the batch may enter the memory system (readIssue binding: serial
// waits for nothing, pipelined arbitrates against a draining writeback),
// dispatch it onto DRAM (dispatchRead binding: one flat batch, or one
// sub-batch per channel), and hand the per-slot completion cycles to the
// forward stage.

// opRead maps the XOR-compression option onto the DRAM read op. Decided
// once at bind time, not per access.
func opRead(xor bool) dram.Op {
	if xor {
		return dram.OpReadOffBus
	}
	return dram.OpRead
}

// pathRead implements Algorithm 2: read every slot of path-leaf (treetop
// levels from on-chip storage, the rest through the DRAM model) and forward
// the intended block at the arrival of its earliest copy.
//
// Tiny ORAM's read-only accesses (collectAll=false) move only the intended
// block into the stash — its stale shadows are discarded in place — while
// every other block stays valid in the tree; the read-write phase
// (collectAll=true) moves everything into the stash ahead of the path
// write. This is the RAW Path ORAM decoupling that lets one eviction per A
// accesses keep the stash bounded.
func (c *Controller) pathRead(start int64, leaf, intended uint32, collectAll bool) (forward, end int64, res readResult) {
	if c.observer != nil {
		c.observer(Event{Kind: EvPathRead, Leaf: leaf, Start: start})
	}
	c.stats.ORAMAccesses++
	path := c.geo.Path(leaf, c.pathBuf)
	c.stagePath(path)
	end = start + 1
	if len(c.locBuf) > 0 {
		end = c.dispatchRead(c.readIssue(start))
	}

	forward, end, res = c.collectAndForward(path, start, end, intended, collectAll)
	return forward, end, res
}

// stagePath resolves the DRAM location of every off-chip slot of path,
// root to leaf, into locBuf: the one place a path's addresses are turned
// into locations. Every later stage — issue arbitration, flat or
// per-channel dispatch, the decoupled writeback queue — works on locBuf.
func (c *Controller) stagePath(path []int) {
	c.locBuf = c.locBuf[:0]
	for _, bucket := range path[c.cfg.TreetopLevels:] {
		c.locBuf = c.mem.LocateRun(c.locBuf, c.layout.BucketAddr(bucket), c.geo.Z, uint64(c.cfg.BlockBytes))
	}
}

// readIssueSerial lets a staged batch enter the memory system the moment
// the datapath reaches it: the serial engine never overlaps an eviction
// writeback, busyUntil already orders everything.
func (c *Controller) readIssueSerial(start int64) int64 { return start }

// readIssuePipelined arbitrates a staged batch against the previous
// eviction writeback still draining into DRAM: the batch enters the memory
// system as soon as the first bank it needs can accept a command. While a
// writeback is still draining on every involved bank this waits exactly as
// the banks require; once any bank frees the read overlaps the remaining
// drain.
func (c *Controller) readIssuePipelined(start int64) int64 {
	issue := start
	if free := c.mem.EarliestBatchStart(c.locBuf); free > issue {
		issue = free
	}
	led := c.ledger()
	if stall := issue - start; stall > 0 {
		led.AddResource(metrics.ResReserveStall, stall)
	}
	if ov := c.wbDrain - issue; ov > 0 {
		c.stats.PipelinedReads++
		c.stats.OverlapCycles += uint64(ov)
		led.AddResource(metrics.ResWritebackOverlap, ov)
		c.mc.Observe("wb_overlap", issue, float64(ov))
	} else if c.mc != nil {
		c.mc.Observe("wb_overlap", issue, 0)
	}
	return issue
}

// dispatchReadFlat issues the staged batch as one interleaved DRAM batch,
// filling doneBuf with per-slot completion cycles.
func (c *Controller) dispatchReadFlat(issue int64) int64 {
	return c.mem.ReserveBatch(issue, c.readOp, c.locBuf, c.doneBuf[:len(c.locBuf)])
}

// dispatchReadChannel issues the staged batch as one sub-batch per DRAM
// channel.
func (c *Controller) dispatchReadChannel(issue int64) int64 {
	return c.channelBatch(issue, c.readOp, c.chanSpanRead)
}

// dispatchWriteFlat issues the staged writeback as one interleaved batch.
func (c *Controller) dispatchWriteFlat(start int64) int64 {
	return c.mem.ReserveBatch(start, dram.OpWrite, c.locBuf, nil)
}

// dispatchWriteChannel issues the staged writeback as one sub-batch per
// DRAM channel.
func (c *Controller) dispatchWriteChannel(start int64) int64 {
	return c.channelBatch(start, dram.OpWrite, c.chanSpanWrite)
}

// channelBatch issues the access staged in locBuf as one sub-batch per
// DRAM channel, all entering the memory system at the same cycle. Channels
// have independent banks and buses and each sub-batch preserves the
// root-to-leaf order of its locations, so every per-slot completion cycle —
// scattered back into doneBuf for reads — is identical to issuing the whole
// interleaved batch at once; what the split buys is that the layout has
// already spread the path's rows evenly, so the sub-batches genuinely run
// in parallel. Returns the completion cycle of the slowest channel.
func (c *Controller) channelBatch(issue int64, op dram.Op, spans []string) int64 {
	for ch := range c.chanLocs {
		c.chanLocs[ch] = c.chanLocs[ch][:0]
		c.chanIdx[ch] = c.chanIdx[ch][:0]
	}
	for i, l := range c.locBuf {
		c.chanLocs[l.Ch] = append(c.chanLocs[l.Ch], l)
		c.chanIdx[l.Ch] = append(c.chanIdx[l.Ch], i)
	}
	tracing := c.mc != nil && c.mc.Trace != nil
	var end int64
	for ch, sub := range c.chanLocs {
		if len(sub) == 0 {
			continue
		}
		var done []int64
		if op != dram.OpWrite {
			done = c.chanDone[:len(sub)]
		}
		chEnd := c.mem.ReserveBatch(issue, op, sub, done)
		for j, slot := range c.chanIdx[ch] {
			if done != nil {
				c.doneBuf[slot] = done[j]
			}
		}
		if tracing {
			c.mc.Trace.Span(spans[ch], "dram", tidChannel0+ch, issue, chEnd,
				map[string]any{"blocks": len(sub)})
		}
		if chEnd > end {
			end = chEnd
		}
	}
	return end
}
