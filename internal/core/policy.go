// Package core implements the paper's contribution: the shadow-block
// duplication engine (§IV–§V). It plugs into the Tiny ORAM controller
// through the oram.DupPolicy interface and decides, for every free (dummy)
// slot of a path write, which recently evicted block to duplicate:
//
//   - RD-Dup (Rear Data Duplication) duplicates the block that was placed
//     deepest — the one whose data would otherwise arrive last in a future
//     path read — promoting its effective level upward slot by slot
//     (Fig. 4: once duplicated, a block's priority becomes its shadow's
//     level).
//   - HD-Dup (Hot Data Duplication) duplicates the block with the highest
//     Hot Address Cache count, preferring near-root slots that every future
//     path read loads, so hot data keeps landing in the stash.
//
// A partitioning level P splits the tree: levels < P (root side) use
// HD-Dup and levels >= P use RD-Dup; raising P gives HD-Dup more slots
// (§IV-D and Fig. 9's sweep). Dynamic partitioning adjusts P with a
// saturating DRI counter fed by the real/dummy request pattern.
package core

import (
	"fmt"

	"shadowblock/internal/block"
	"shadowblock/internal/cache"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// Mode selects the duplication scheme.
type Mode int

// Duplication modes: the pure schemes, and their static/dynamic partition
// combinations.
const (
	// ModeRD uses RD-Dup on every level (partition level 0).
	ModeRD Mode = iota
	// ModeHD uses HD-Dup on every level (partition level L+1).
	ModeHD
	// ModeStatic splits at a fixed PartitionLevel.
	ModeStatic
	// ModeDynamic adjusts the partition level with the DRI counter.
	ModeDynamic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeRD:
		return "rd-dup"
	case ModeHD:
		return "hd-dup"
	case ModeStatic:
		return "static"
	case ModeDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterises the policy.
type Config struct {
	Mode           Mode
	PartitionLevel int // ModeStatic: levels < P use HD-Dup, >= P use RD-Dup
	DRICounterBits int // ModeDynamic: saturating counter width (paper: 3)
	HotEntries     int // Hot Address Cache entries (paper: 1 KB ~ 128)
	HotWays        int
}

// Static returns a static-partition configuration at level p.
func Static(p int) Config {
	return Config{Mode: ModeStatic, PartitionLevel: p, HotEntries: 128, HotWays: 4}
}

// Dynamic returns a dynamic-partition configuration with the given counter
// width.
func Dynamic(bits int) Config {
	return Config{Mode: ModeDynamic, DRICounterBits: bits, HotEntries: 128, HotWays: 4}
}

// RDOnly returns the pure RD-Dup configuration.
func RDOnly() Config { return Config{Mode: ModeRD, HotEntries: 128, HotWays: 4} }

// HDOnly returns the pure HD-Dup configuration.
func HDOnly() Config { return Config{Mode: ModeHD, HotEntries: 128, HotWays: 4} }

// Validate reports configuration errors (geometry-dependent checks happen
// at bind time).
func (c Config) Validate() error {
	switch {
	case c.Mode < ModeRD || c.Mode > ModeDynamic:
		return fmt.Errorf("core: unknown mode %d", int(c.Mode))
	case c.Mode == ModeStatic && c.PartitionLevel < 0:
		return fmt.Errorf("core: negative partition level")
	case c.Mode == ModeDynamic && (c.DRICounterBits < 1 || c.DRICounterBits > 16):
		return fmt.Errorf("core: DRI counter width %d outside [1,16]", c.DRICounterBits)
	case c.HotEntries < 1 || c.HotWays < 1:
		return fmt.Errorf("core: bad Hot Address Cache geometry")
	}
	return nil
}

// candidate tracks one duplicable block during a path write.
type candidate struct {
	addr     uint32
	label    uint32
	isect    int32  // IntersectLevel(label, path leaf): Rule-1 bound
	srcLevel int32  // the real copy's tree level: Rule-2 bound
	effLevel int32  // shallowest copy so far: RD-Dup priority
	seq      int32  // eviction order (later = higher tie-break priority)
	count    uint64 // Hot Address Cache count: HD-Dup priority
}

// Policy implements oram.DupPolicy.
type Policy struct {
	cfg Config
	geo tree.Geometry
	st  *stash.Stash
	hac *cache.HotAddrCache

	partition  int
	counter    uint32
	counterMax uint32
	prevReal   bool
	havePrev   bool

	// Per-path-write state (the paper's RD-queue and HD-queue, cleared
	// after each write). Candidates live in a reused arena; the map and
	// queue nodes hold indices into it.
	leaf  uint32 // the path currently being written
	arena []candidate
	cands map[uint32]int32
	rd    candQueue
	hd    candQueue
	seq   int32
	// last is the level of the previous SelectDup or NoteEvict in this
	// path write; the queues' thresholds rely on levels never deepening.
	last int
	// picked is the candidate the last SelectDup returned (-1: none), so
	// the NoteEvict that follows for its shadow skips the map lookup.
	picked int32

	// Statistics.
	rdShadows, hdShadows uint64
	partitionSum         uint64
	partitionSamples     uint64

	mc *metrics.Collector
}

var (
	_ oram.DupPolicy      = (*Policy)(nil)
	_ oram.GeometryBinder = (*Policy)(nil)
)

// New builds a shadow-block ORAM: a controller whose path writes fill dummy
// slots through this policy.
func New(ocfg oram.Config, pcfg Config) (*oram.Controller, *Policy, error) {
	p, err := newUnbound(pcfg)
	if err != nil {
		return nil, nil, err
	}
	ctrl, err := oram.New(ocfg, p)
	if err != nil {
		return nil, nil, err
	}
	if err := p.bind(ctrl.Geometry(), ctrl.Stash()); err != nil {
		return nil, nil, err
	}
	return ctrl, p, nil
}

// NewPolicy builds a standalone policy bound to an existing geometry and
// stash, for controllers other than the Tiny ORAM one (e.g. Ring ORAM,
// which the paper notes is equally amenable to shadow blocks).
func NewPolicy(pcfg Config, geo tree.Geometry, st *stash.Stash) (*Policy, error) {
	p, err := newUnbound(pcfg)
	if err != nil {
		return nil, err
	}
	if err := p.bind(geo, st); err != nil {
		return nil, err
	}
	return p, nil
}

// NewUnbound builds a policy not yet bound to a geometry and stash, for
// handing to an engine constructor through the oram.Engine seam: the
// constructor binds it (via oram.GeometryBinder) once its geometry and
// stash exist. Using an unbound policy before binding is a programming
// error.
func NewUnbound(pcfg Config) (*Policy, error) { return newUnbound(pcfg) }

// BindGeometry implements oram.GeometryBinder: engine constructors call
// it exactly once, after construction, with their geometry and stash.
func (p *Policy) BindGeometry(geo tree.Geometry, st *stash.Stash) error { return p.bind(geo, st) }

func newUnbound(pcfg Config) (*Policy, error) {
	if err := pcfg.Validate(); err != nil {
		return nil, err
	}
	return &Policy{
		cfg:   pcfg,
		hac:   cache.NewHotAddrCache(pcfg.HotEntries, pcfg.HotWays),
		cands: make(map[uint32]int32),
		rd:    candQueue{kind: byLevel},
		hd:    candQueue{kind: byCount},
	}, nil
}

// MustNew is New for statically known-good configurations.
func MustNew(ocfg oram.Config, pcfg Config) (*oram.Controller, *Policy) {
	c, p, err := New(ocfg, pcfg)
	if err != nil {
		panic(err)
	}
	return c, p
}

// bind fixes the policy to a tree geometry. Partition levels live in
// [0, L+1]; a static level above L+1 is a configuration error, not
// something to clamp silently — the caller asked for a split the tree
// cannot express.
func (p *Policy) bind(geo tree.Geometry, st *stash.Stash) error {
	if p.cfg.Mode == ModeStatic && p.cfg.PartitionLevel > geo.L+1 {
		return fmt.Errorf("core: static partition level %d above the tree's top level %d", p.cfg.PartitionLevel, geo.L+1)
	}
	p.geo = geo
	p.st = st
	p.rd.bind(geo.L)
	p.hd.bind(geo.L)
	p.reset()
	switch p.cfg.Mode {
	case ModeRD:
		p.partition = 0
	case ModeHD:
		p.partition = geo.L + 1
	case ModeStatic:
		p.partition = p.cfg.PartitionLevel
	case ModeDynamic:
		p.partition = (geo.L + 1) / 2
		p.counterMax = 1<<uint(p.cfg.DRICounterBits) - 1
		p.counter = (p.counterMax + 1) / 2
	}
	return nil
}

// Partition returns the current partitioning level (levels below it use
// HD-Dup).
func (p *Policy) Partition() int { return p.partition }

// SetMetrics attaches an observability collector (nil detaches it): the
// policy counts shadow creation per scheme and partition-step direction.
func (p *Policy) SetMetrics(mc *metrics.Collector) { p.mc = mc }

// ShadowCounts returns how many shadows each scheme has created.
func (p *Policy) ShadowCounts() (rd, hd uint64) { return p.rdShadows, p.hdShadows }

// MeanPartition returns the request-weighted average partition level (used
// by the dynamic-partitioning experiments).
func (p *Policy) MeanPartition() float64 {
	if p.partitionSamples == 0 {
		return float64(p.partition)
	}
	return float64(p.partitionSum) / float64(p.partitionSamples)
}

// BeginPathWrite implements oram.DupPolicy: it seeds the RD/HD queues with
// the stash's resident shadow blocks (§V-B: "shadow blocks in the stash,
// which can be evicted, are also inserted into the queues").
func (p *Policy) BeginPathWrite(leaf uint32) {
	p.reset()
	// Rule-1 intersections are against this write's path throughout, so
	// each candidate's is computed once, when its label is known.
	p.leaf = leaf
	p.st.ForEachShadow(func(e stash.Entry) {
		p.enqueue(p.newCandidate(e.Meta.Addr), e.Meta.Label, int32(e.Meta.SrcLevel))
	})
}

func (p *Policy) reset() {
	clear(p.cands)
	p.arena = p.arena[:0]
	p.rd.reset()
	p.hd.reset()
	p.seq = 0
	p.last = p.geo.L
	p.picked = -1
}

// newCandidate appends a fresh unqueued candidate for addr to the arena and
// indexes it. The returned index stays valid across arena growth; pointers
// into the arena do not, so callers re-derive them after any append.
func (p *Policy) newCandidate(addr uint32) int32 {
	idx := int32(len(p.arena))
	p.arena = append(p.arena, candidate{addr: addr})
	p.rd.loc = append(p.rd.loc, qloc{pos: -1})
	p.hd.loc = append(p.hd.loc, qloc{pos: -1})
	p.cands[addr] = idx
	return idx
}

// enqueue (re)initialises candidate idx for a block with the given label
// whose real copy sits at srcLevel, gives it the next sequence number and
// queues it in both queues (moving it if it was queued already).
func (p *Policy) enqueue(idx int32, label uint32, srcLevel int32) {
	c := &p.arena[idx]
	c.label = label
	c.isect = int32(p.geo.IntersectLevel(label, p.leaf))
	c.srcLevel = srcLevel
	c.effLevel = srcLevel
	c.count = p.hac.Count(c.addr)
	c.seq = p.seq
	p.seq++
	p.rd.place(p.arena, idx)
	p.hd.place(p.arena, idx)
}

// checkLevel enforces oram.DupPolicy's call order: within one path write
// the slot level never deepens. The queues' eligibility thresholds are
// only exact under that order, so a caller that breaks it must fail here
// rather than silently get a different shadow.
func (p *Policy) checkLevel(op string, level int) {
	if level > p.last {
		panic(fmt.Sprintf("core: %s at level %d after a call at level %d in the same path write: levels must not deepen within a path write", op, level, p.last))
	}
	p.last = level
}

// NoteEvict implements oram.DupPolicy. Real placements create candidates;
// shadow placements (including the ones SelectDup just made) update the
// candidate's effective level and decay its HD priority so other hot blocks
// get their turn.
func (p *Policy) NoteEvict(m block.Meta, level int) {
	p.checkLevel("NoteEvict", level)
	switch m.Kind {
	case block.Real:
		idx, ok := p.cands[m.Addr]
		if !ok {
			idx = p.newCandidate(m.Addr)
		}
		p.enqueue(idx, m.Label, int32(level))
	case block.Shadow:
		idx := p.picked
		if idx < 0 || p.arena[idx].addr != m.Addr {
			var ok bool
			if idx, ok = p.cands[m.Addr]; !ok {
				return
			}
		}
		c := &p.arena[idx]
		if lv := int32(level); lv < c.effLevel {
			c.effLevel = lv
			p.rd.place(p.arena, idx)
		}
		c.count >>= 1
		p.hd.place(p.arena, idx)
	}
}

// SelectDup implements oram.DupPolicy: pick the duplication candidate for
// the free slot at the given level of path-leaf, honouring the partition
// and Rules 1–2. Rule-1 is checked against the path given to
// BeginPathWrite (candidate.isect), which is leaf for every slot of one
// write. The queue's heap holds exactly the candidates eligible at this
// level once promote has run, so its maximum is the pick; candidates not
// yet eligible stay pending for shallower slots.
func (p *Policy) SelectDup(leaf uint32, level int) (block.Meta, bool) {
	p.checkLevel("SelectDup", level)
	useHD := level < p.partition
	q := &p.rd
	if useHD {
		q = &p.hd
	}
	q.promote(p.arena, level)
	idx := q.pop()
	p.picked = idx
	if idx < 0 {
		return block.Meta{}, false
	}
	c := &p.arena[idx]
	m := block.Meta{
		Kind:     block.Shadow,
		Addr:     c.addr,
		Label:    c.label,
		SrcLevel: uint8(c.srcLevel),
	}
	if useHD {
		p.hdShadows++
		p.mc.Count("hd_shadows", 1)
	} else {
		p.rdShadows++
		p.mc.Count("rd_shadows", 1)
	}
	return m, true
}

// EndPathWrite implements oram.DupPolicy: both queues are cleared after the
// path write completes (§V-B).
func (p *Policy) EndPathWrite() { p.reset() }

// NoteLLCMiss implements oram.DupPolicy: feed the Hot Address Cache.
func (p *Policy) NoteLLCMiss(addr uint32) {
	if p.cfg.Mode != ModeRD {
		p.hac.Touch(addr)
	}
}

// NoteORAMRequest implements oram.DupPolicy: the DRI counter of §IV-D.
// A real request following a real request means a short interval (HD-Dup
// territory, counter down); a dummy following a real means the interval
// overran a slot (RD-Dup territory, counter up). The partition level then
// steps toward the scheme the counter favours.
func (p *Policy) NoteORAMRequest(dummy bool) {
	if p.cfg.Mode != ModeDynamic {
		return
	}
	if p.havePrev && p.prevReal {
		if dummy {
			if p.counter < p.counterMax {
				p.counter++
			}
		} else if p.counter > 0 {
			p.counter--
		}
	}
	p.prevReal = !dummy
	p.havePrev = true

	if p.counter < (p.counterMax+1)/2 {
		if p.partition < p.geo.L+1 {
			p.partition++
			p.mc.Count("partition_up", 1)
		}
	} else if p.partition > 0 {
		p.partition--
		p.mc.Count("partition_down", 1)
	}
	p.partitionSum += uint64(p.partition)
	p.partitionSamples++
}

// ShadowPriority implements oram.DupPolicy: the Hot Address Cache count
// ranks shadows for stash retention.
func (p *Policy) ShadowPriority(addr uint32) uint64 {
	return p.hac.Count(addr)
}
