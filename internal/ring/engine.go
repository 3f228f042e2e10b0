package ring

import (
	"fmt"

	"shadowblock/internal/dram"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
)

// Engine adapts the Ring controller to the public oram.Engine seam: the
// shared counter vocabulary, observability (latency histograms plus the
// cycle-attribution ledger, with Ring's own stage names), and registry
// construction from an oram.Config. The protocol itself — ops.go and
// invariant.go — is untouched; this file is only the seam glue, and it is
// the one driver every consumer (simulator, paperbench matrix, examples)
// now shares.
type Engine struct {
	c  *Controller
	mc *metrics.Collector
}

var _ oram.Engine = (*Engine)(nil)

// EngineName is the registered name of the Ring ORAM engine.
const EngineName = "ring"

// ledgerStages is Ring's attribution vocabulary: a read touches one slot
// per bucket (not a full path), and the eviction is a whole-path rewrite.
var ledgerStages = map[metrics.Stage]string{
	metrics.StagePathRead:   "ring_read",
	metrics.StageEvictDrain: "ring_evict",
}

func init() {
	oram.RegisterEngine(oram.EngineInfo{
		Name:        EngineName,
		Description: "Ring ORAM with shadow-carrying dummy slots (§II-C generality)",
		// The pipelined issue, channel-interleaved layout, decoupled
		// writeback scheduler, functional payloads and treetop cache are
		// Path-engine machinery Ring does not (yet) share.
		Caps:         oram.Caps{},
		New:          newSeamEngine,
		LedgerStages: ledgerStages,
	})
}

// FromORAM derives the Ring configuration corresponding to a Path config:
// the shared axes (geometry, block size, stash, AES latency, timing
// protection, XOR, seed, DRAM) carry over, and the Ring-specific bucket
// shape keeps the classic Z=4/S=6/A=3 parameterisation of Default.
func FromORAM(o oram.Config) Config {
	c := Default()
	c.L = o.L
	c.BlockBytes = o.BlockBytes
	c.StashCapacity = o.StashCapacity
	c.AESLatency = o.AESLatency
	c.TimingProtection = o.TimingProtection
	c.RequestRate = o.RequestRate
	c.XOR = o.XOR
	c.Seed = o.Seed
	c.DRAM = o.DRAM
	return c
}

// newSeamEngine is the registry constructor: map the Path config onto
// Ring's, build the controller with the policy unbound, then bind the
// policy to the geometry and stash that now exist (the same two-phase
// sequence NewShadow performs).
func newSeamEngine(ocfg oram.Config, policy oram.DupPolicy) (oram.Engine, error) {
	cfg := FromORAM(ocfg)
	c, err := New(cfg, nil)
	if err != nil {
		return nil, err
	}
	if policy != nil {
		if b, ok := policy.(oram.GeometryBinder); ok {
			if err := b.BindGeometry(c.geo, c.st); err != nil {
				return nil, err
			}
		}
		c.policy = policy
	}
	return &Engine{c: c}, nil
}

// NewEngine wraps an existing Ring controller for the seam — for callers
// that built one directly (ring-native Config, NewShadow) and want the
// shared front end or observability on top.
func NewEngine(c *Controller) *Engine {
	if c == nil {
		panic("ring: NewEngine needs a controller")
	}
	return &Engine{c: c}
}

// Name identifies the engine on the seam.
func (e *Engine) Name() string { return EngineName }

// Controller exposes the underlying Ring controller (protocol-specific
// state: reshuffle counters, invariant checks).
func (e *Engine) Controller() *Controller { return e.c }

// Request serves one LLC miss and, when a collector is attached, records
// the request's latency and ledger attribution. Ring decides timing
// before observation reads it, so attaching a collector never changes a
// run.
func (e *Engine) Request(now int64, addr uint32, write bool) oram.Outcome {
	out := e.c.Request(now, addr, write)
	if e.mc != nil {
		e.observe(now, out)
	}
	return out
}

// observe mirrors the Path controller's attribution arithmetic: the
// telescoping legs queue-wait (presentation to serve), ring read
// (serve to forward) and ring evict (forward to completion) sum
// bit-exactly to the end-to-end latency. Ring's posmap is direct, so the
// posmap leg is structurally zero.
func (e *Engine) observe(issue int64, out oram.Outcome) {
	mc := e.mc
	mc.ReqForward.Record(out.Forward - issue)
	mc.ReqComplete.Record(out.Done - issue)
	queueWait := out.Start - issue
	ringRead := out.Forward - out.Start
	ringEvict := out.Done - out.Forward
	mc.Ledger.RecordAccess(queueWait, 0, ringRead, ringEvict, out.Done-issue)
	occ := e.c.st.Snapshot()
	mc.Observe("stash_occupancy", issue, float64(occ.Real+occ.Shadow))
}

// AdvanceTo issues timing-protection dummies due before now.
func (e *Engine) AdvanceTo(now int64) { e.c.AdvanceTo(now) }

// Drain returns the completion cycle of all issued work.
func (e *Engine) Drain() int64 { return e.c.Drain() }

// Stats maps Ring's protocol counters onto the shared vocabulary:
// ReadPath phases are ORAM accesses, EvictPath phases are evictions, and
// the shadow/stash counters carry over one-to-one. Ring-only counters
// (reshuffles, stale shadows) live on RingStats.
func (e *Engine) Stats() oram.Stats {
	s := e.c.Stats()
	return oram.Stats{
		Requests:         s.Requests,
		StashHits:        s.StashHits,
		ShadowStashHits:  s.ShadowStashHits,
		OnChipHits:       s.StashHits + s.ShadowStashHits,
		ORAMAccesses:     s.Reads,
		DummyAccesses:    s.DummyReads,
		EvictionPhases:   s.Evictions,
		ShadowForwards:   s.ShadowForwards,
		StashOverflows:   s.StashOverflows,
		Anomalies:        s.Anomalies,
		DataAccessCycles: s.DataAccessCycles,
	}
}

// RingStats exposes the protocol-specific counters (reshuffles, stale
// shadows) the shared vocabulary has no slot for.
func (e *Engine) RingStats() Stats { return e.c.Stats() }

// MemStats exposes the DRAM counters.
func (e *Engine) MemStats() dram.Stats { return e.c.MemStats() }

// MemLedger exposes the DRAM model's per-channel/per-bank attribution.
func (e *Engine) MemLedger() []dram.ChannelLedger { return e.c.mem.Ledger() }

// NumDataBlocks returns the data address space size.
func (e *Engine) NumDataBlocks() int { return e.c.NumDataBlocks() }

// SetObserver registers the externally-visible-operation callback.
func (e *Engine) SetObserver(fn func(oram.Event)) { e.c.SetObserver(fn) }

// SetMetrics attaches an observability collector (nil detaches) and
// registers Ring's ledger stage vocabulary on it.
func (e *Engine) SetMetrics(mc *metrics.Collector) {
	e.mc = mc
	if mc != nil {
		mc.Ledger.SetStageNames(ledgerStages)
	}
}

// Ledger returns the attached collector's attribution ledger (nil-safe),
// for the front end's coalesce accounting.
func (e *Engine) Ledger() *metrics.Ledger {
	if e.mc == nil {
		return nil
	}
	return e.mc.Ledger
}

// CheckInvariants verifies the Ring controller's structural guarantees.
func (e *Engine) CheckInvariants() error { return e.c.CheckInvariants() }

// String aids debugging output.
func (e *Engine) String() string {
	return fmt.Sprintf("ring engine (L=%d Z=%d S=%d A=%d)", e.c.cfg.L, e.c.cfg.Z, e.c.cfg.S, e.c.cfg.A)
}
