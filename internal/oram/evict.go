package oram

import (
	"shadowblock/internal/block"
	"shadowblock/internal/metrics"
	"shadowblock/internal/stash"
)

// Eviction stage: the read-write phase that refills one
// reverse-lexicographic path from the stash after every A read-only
// accesses. What the phase returns is an engine binding (evictRetire):
// the serial engine charges the datapath until the writeback completes,
// the pipelined engine frees the datapath at the end of the eviction's
// path read and leaves the writeback draining in wbDrain, where the next
// path read's bank arbitration sees it.

// maybeEvict runs the read-write phase when due (Step-4..6): a path read
// of the next reverse-lexicographic path followed by a path write
// refilling it from the stash.
func (c *Controller) maybeEvict(start int64) int64 {
	if c.accessCount%uint64(c.cfg.A) != 0 {
		return start
	}
	leaf := c.geo.ReverseLexLeaf(c.evictCount)
	c.evictCount++
	c.stats.EvictionPhases++
	_, readEnd, _ := c.pathRead(start, leaf, NoAddr, true)
	end := c.pathWrite(readEnd, leaf)
	if c.mc != nil && c.mc.Trace != nil {
		c.mc.Trace.Span("evict", "oram", tidBackground, start, end, map[string]any{"leaf": leaf})
	}
	return c.evictRetire(leaf, readEnd, end)
}

// evictRetireSerial: the serial engine's datapath stays busy until the
// writeback has fully drained.
func (c *Controller) evictRetireSerial(_ uint32, _, writeEnd int64) int64 {
	return writeEnd
}

// evictRetirePipelined frees the datapath at the end of the eviction's
// path read — the refill decision is made — and tracks the writeback in
// wbDrain so the next path read may overlap it.
func (c *Controller) evictRetirePipelined(leaf uint32, readEnd, writeEnd int64) int64 {
	c.wbDrain = writeEnd
	if drain := writeEnd - readEnd; drain > 0 {
		c.ledger().AddResource(metrics.ResWritebackDrain, drain)
	}
	if c.mc != nil && c.mc.Trace != nil {
		c.mc.Trace.Span("evict.writeback", "oram", tidBackground, readEnd, writeEnd,
			map[string]any{"leaf": leaf})
	}
	return readEnd
}

// evictRetireDecoupled frees the datapath one cycle after the eviction's
// path read, like the writeback never happened on it: dispatchWriteQueued
// parked the per-bucket writes (writeEnd is readEnd+1, the staging cost),
// and each op retires when the scheduler slots or forces it. wbDrain is
// not touched here — wbReserve max-updates it per retired op.
func (c *Controller) evictRetireDecoupled(leaf uint32, readEnd, writeEnd int64) int64 {
	if c.mc != nil && c.mc.Trace != nil {
		c.mc.Trace.Span("evict.queued", "oram", tidBackground, readEnd, writeEnd,
			map[string]any{"leaf": leaf, "pending": len(c.wb.ops)})
	}
	return writeEnd
}

// pathWrite implements Algorithm 1: refill path-leaf from the stash as deep
// as possible; free slots go to the duplication policy before defaulting to
// dummies. Every slot is (re-)encrypted and written.
//
// Precondition: locBuf holds path-leaf as stagePath staged it. maybeEvict
// calls pathWrite straight after the eviction's pathRead of the same leaf,
// and nothing between the two restages, so the write reuses the read's
// locations instead of resolving the path again.
func (c *Controller) pathWrite(start int64, leaf uint32) int64 {
	if c.observer != nil {
		c.observer(Event{Kind: EvPathWrite, Leaf: leaf, Start: start})
	}
	c.policy.BeginPathWrite(leaf)
	path := c.geo.Path(leaf, c.pathBuf)
	z := c.geo.Z

	// Bucket the stash's real blocks by how deep they may go on this path.
	pools := c.poolsBuf
	for i := range pools {
		pools[i] = pools[i][:0]
	}
	c.st.ForEachReal(func(e stash.Entry) {
		il := c.geo.IntersectLevel(e.Meta.Label, leaf)
		pools[il] = append(pools[il], e.Meta.Addr)
	})
	// Canonical placement order: the stash's internal layout depends on
	// how many shadows passed through it, and placement must not — the
	// security tests rely on Tiny and Shadow ORAM evicting identically.
	for i := range pools {
		sortAddrs(pools[i])
	}
	for k := range c.placedData {
		delete(c.placedData, k)
	}

	for i := c.geo.PathLen() - 1; i >= 0; i-- {
		lv := i / z
		s := i % z
		bucket := path[lv]

		// Deepest-eligible stash block: any pool at level >= lv.
		var addr uint32
		found := false
		for d := c.geo.L; d >= lv; d-- {
			if n := len(pools[d]); n > 0 {
				addr = pools[d][n-1]
				pools[d] = pools[d][:n-1]
				found = true
				break
			}
		}
		if found {
			e, ok := c.st.Take(addr)
			if !ok {
				c.stats.Anomalies++
				continue
			}
			c.store.set(bucket, s, e.Meta, c.seal(e.Data))
			if c.cfg.Functional {
				c.placedData[e.Meta.Addr] = e.Data
			}
			c.policy.NoteEvict(e.Meta, lv)
			continue
		}
		if m, ok := c.policy.SelectDup(leaf, lv); ok {
			c.store.set(bucket, s, m, c.seal(c.dupPayload(m.Addr)))
			c.policy.NoteEvict(m, lv)
			continue
		}
		c.store.set(bucket, s, block.DummyMeta, c.sealZero())
	}

	// Write back every off-chip slot, over the locations the eviction's
	// path read staged.
	end := start + 1
	if len(c.locBuf) > 0 {
		end = c.dispatchWrite(start)
	}
	c.policy.EndPathWrite()
	return end
}

// dupPayload finds the plaintext for a shadow copy of addr: either the
// block was placed earlier in this very path write, or a shadow of it is
// still resident in the stash.
func (c *Controller) dupPayload(addr uint32) []byte {
	if !c.cfg.Functional {
		return nil
	}
	if d, ok := c.placedData[addr]; ok {
		return d
	}
	if e, ok := c.st.Lookup(addr); ok {
		return e.Data
	}
	c.stats.Anomalies++
	return c.zeroPlain()
}
