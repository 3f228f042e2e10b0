package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"shadowblock/internal/block"
	"shadowblock/internal/rng"
	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// drainPolicy builds a policy whose queues can be exercised directly.
func drainPolicy(t *testing.T) (*Policy, tree.Geometry) {
	t.Helper()
	geo, err := tree.NewGeometry(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPolicy(Static(5), geo, stash.New(150))
	if err != nil {
		t.Fatal(err)
	}
	return p, geo
}

// refCand is the reference model's view of one duplication candidate.
type refCand struct {
	addr, label                    uint32
	isect, srcLevel, effLevel, seq int
	count                          uint64
	rdQueued, hdQueued             bool
}

// refWrite is the selection rule the queues must reproduce, kept as a
// from-scratch scan: at a slot of level lv, the pick is the queued
// candidate with the highest priority among those that satisfy Rule-1
// (the slot is on the candidate's path: isect >= lv), Rule-2 (strictly
// above the real copy) and, for RD-Dup, improve its effective level.
// Priorities are (effLevel, seq) for RD and (count, seq) for HD; seq is
// unique within a write, so the pick is unique.
type refWrite struct {
	cands []*refCand
	byAdr map[uint32]*refCand
	seq   int
}

func (w *refWrite) add(c *refCand) {
	c.seq = w.seq
	w.seq++
	c.rdQueued, c.hdQueued = true, true
	w.cands = append(w.cands, c)
	w.byAdr[c.addr] = c
}

func (w *refWrite) pick(lv int, useHD bool) *refCand {
	var best *refCand
	var bestPrio int64
	for _, c := range w.cands {
		queued := c.rdQueued
		prio := int64(c.effLevel)<<32 | int64(c.seq)
		if useHD {
			queued = c.hdQueued
			prio = int64(c.count)<<20 | int64(c.seq)
		}
		if !queued || lv >= c.srcLevel || (!useHD && lv >= c.effLevel) || c.isect < lv {
			continue
		}
		if best == nil || prio > bestPrio {
			best, bestPrio = c, prio
		}
	}
	if best != nil {
		if useHD {
			best.hdQueued = false
		} else {
			best.rdQueued = false
		}
	}
	return best
}

// noteShadow mirrors NoteEvict for a shadow placed at lv: the effective
// level can only improve, the HD count halves, and both queues hold the
// candidate again.
func (w *refWrite) noteShadow(addr uint32, lv int) {
	c, ok := w.byAdr[addr]
	if !ok {
		return
	}
	if lv < c.effLevel {
		c.effLevel = lv
		c.rdQueued = true
	}
	c.count >>= 1
	c.hdQueued = true
}

// checkQueue verifies a queue's internal consistency: every heap node and
// pending entry names a candidate whose recorded location points back at
// it, the heap is ordered, and the threshold split matches cur. A held
// root (a popped candidate awaiting its NoteEvict) must be unqueued.
func checkQueue(p *Policy, q *candQueue) error {
	for i, n := range q.heap {
		c := &p.arena[n.cand]
		if i == 0 && q.held {
			if q.loc[n.cand].pos != -1 {
				return fmt.Errorf("held root still recorded as queued: %+v", q.loc[n.cand])
			}
			continue
		}
		if l := q.loc[n.cand]; l.bucket != inHeap || int(l.pos) != i {
			return fmt.Errorf("heap node %d: candidate records %+v", i, l)
		}
		if n.prio != q.prio(c) {
			return fmt.Errorf("heap node %d: stale priority", i)
		}
		if t := q.threshold(c); t <= q.cur {
			return fmt.Errorf("heap node %d: threshold %d not above cur %d", i, t, q.cur)
		}
		if i > 0 && q.heap[(i-1)/2].prio < n.prio {
			return fmt.Errorf("heap order broken at %d", i)
		}
	}
	for t, b := range q.pending {
		for i, idx := range b {
			c := &p.arena[idx]
			if l := q.loc[idx]; int(l.bucket) != t || int(l.pos) != i {
				return fmt.Errorf("pending[%d][%d]: candidate records %+v", t, i, l)
			}
			if got := q.threshold(c); got != t || t > q.cur {
				return fmt.Errorf("pending[%d][%d]: threshold %d, cur %d", t, i, got, q.cur)
			}
		}
	}
	return nil
}

// TestPathWriteSelectionMatchesReference drives whole path writes through
// the policy the way the controllers do — random stash shadows seeded by
// BeginPathWrite, then slots leaf to root, real NoteEvicts interleaved
// with SelectDups at non-increasing levels, each accepted shadow
// reported back through NoteEvict — and checks every pick against the
// reference scan over all live candidates, in every mode.
func TestPathWriteSelectionMatchesReference(t *testing.T) {
	geo, err := tree.NewGeometry(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		cfg  Config
	}{
		{"rd", RDOnly()},
		{"hd", HDOnly()},
		{"static-5", Static(5)},
		{"dynamic-3", Dynamic(3)},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			r := rng.NewXoshiro(0x5eed)
			st := stash.New(200)
			p, err := NewPolicy(m.cfg, geo, st)
			if err != nil {
				t.Fatal(err)
			}
			leaves := uint64(geo.NumLeaves())
			picks := 0
			for write := 0; write < 300; write++ {
				// A fresh random stash of shadows; a narrow address range
				// gives repeated Hot Address Cache counts (priority ties
				// broken by seq).
				for _, a := range collectAddrs(st) {
					st.Drop(a)
				}
				for i := 0; i < int(r.Uint64n(140)); i++ {
					addr := uint32(r.Uint64n(4096))
					st.Insert(stash.Entry{Meta: block.Meta{
						Kind:     block.Shadow,
						Addr:     addr,
						Label:    uint32(r.Uint64n(leaves)),
						SrcLevel: uint8(r.Uint64n(uint64(geo.L + 1))),
					}})
				}
				for i := 0; i < 64; i++ {
					p.NoteLLCMiss(uint32(r.Uint64n(256)))
				}
				p.NoteORAMRequest(r.Uint64n(3) == 0)

				leaf := uint32(r.Uint64n(leaves))
				ref := &refWrite{byAdr: make(map[uint32]*refCand)}
				p.BeginPathWrite(leaf)
				st.ForEachShadow(func(e stash.Entry) {
					ref.add(&refCand{
						addr:     e.Meta.Addr,
						label:    e.Meta.Label,
						isect:    geo.IntersectLevel(e.Meta.Label, leaf),
						srcLevel: int(e.Meta.SrcLevel),
						effLevel: int(e.Meta.SrcLevel),
						count:    p.hac.Count(e.Meta.Addr),
					})
				})
				for lv := geo.L; lv >= 0; lv-- {
					for s := 0; s < geo.Z; s++ {
						switch k := r.Uint64n(8); {
						case k < 2:
							// A real block placed here: usually a fresh
							// address, sometimes one already a candidate
							// (a Ring reshuffle re-places a bucket's
							// reals while their shadows sit in the stash).
							addr := uint32(8192 + r.Uint64n(1<<20))
							if k == 0 && len(ref.cands) > 0 {
								addr = ref.cands[r.Uint64n(uint64(len(ref.cands)))].addr
							}
							label := uint32(r.Uint64n(leaves))
							p.NoteEvict(block.Meta{Kind: block.Real, Addr: addr, Label: label}, lv)
							c, ok := ref.byAdr[addr]
							if !ok {
								c = &refCand{addr: addr}
							}
							c.label = label
							c.isect = geo.IntersectLevel(label, leaf)
							c.srcLevel, c.effLevel = lv, lv
							c.count = p.hac.Count(addr)
							if ok {
								c.seq = ref.seq
								ref.seq++
								c.rdQueued, c.hdQueued = true, true
							} else {
								ref.add(c)
							}
						default:
							useHD := lv < p.Partition()
							want := ref.pick(lv, useHD)
							got, ok := p.SelectDup(leaf, lv)
							if ok != (want != nil) || (ok && got.Addr != want.addr) {
								t.Fatalf("write %d level %d (hd=%v): picked %v/%v, reference %+v", write, lv, useHD, got.Addr, ok, want)
							}
							if ok {
								picks++
								if got.Label != want.label || int(got.SrcLevel) != want.srcLevel {
									t.Fatalf("write %d level %d: shadow meta %+v, reference %+v", write, lv, got, want)
								}
								// The controllers always report the shadow
								// back. Now and then skip it, or report
								// another candidate's shadow instead, to
								// check that a consumed pick stays consumed
								// whatever call comes next.
								switch r.Uint64n(16) {
								case 0:
								case 1:
									other := ref.cands[r.Uint64n(uint64(len(ref.cands)))]
									p.NoteEvict(block.Meta{Kind: block.Shadow, Addr: other.addr, Label: other.label}, lv)
									ref.noteShadow(other.addr, lv)
								default:
									p.NoteEvict(got, lv)
									ref.noteShadow(got.Addr, lv)
								}
							}
						}
						for _, q := range []*candQueue{&p.rd, &p.hd} {
							if err := checkQueue(p, q); err != nil {
								t.Fatalf("write %d level %d: %v", write, lv, err)
							}
						}
					}
				}
				p.EndPathWrite()
			}
			if picks < 1000 {
				t.Fatalf("only %d shadows picked; the test is not exercising selection", picks)
			}
		})
	}
}

func collectAddrs(st *stash.Stash) []uint32 {
	var addrs []uint32
	st.ForEach(func(e stash.Entry) { addrs = append(addrs, e.Meta.Addr) })
	return addrs
}

// TestLevelOrderViolationPanics: the queues' thresholds are only exact
// when levels never deepen within a path write, so a SelectDup or
// NoteEvict deeper than the previous call must panic and name both levels;
// BeginPathWrite starts a fresh write at any level.
func TestLevelOrderViolationPanics(t *testing.T) {
	p, geo := drainPolicy(t)
	expectPanic := func(name string, fn func(), want ...string) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			msg := fmt.Sprint(r)
			for _, w := range want {
				if !strings.Contains(msg, w) {
					t.Fatalf("%s: panic %q does not mention %q", name, msg, w)
				}
			}
		}()
		fn()
	}
	p.BeginPathWrite(0)
	p.SelectDup(0, 6)
	expectPanic("SelectDup", func() { p.SelectDup(0, 7) }, "SelectDup", "level 7", "level 6")

	p.BeginPathWrite(0)
	p.NoteEvict(block.Meta{Kind: block.Real, Addr: 1}, 4)
	p.SelectDup(0, 4) // same level: fine
	expectPanic("NoteEvict", func() { p.NoteEvict(block.Meta{Kind: block.Real, Addr: 2}, 5) }, "NoteEvict", "level 5", "level 4")

	// A new path write resets the order check, and so does EndPathWrite.
	p.BeginPathWrite(0)
	p.SelectDup(0, geo.L)
	p.SelectDup(0, 0)
	p.EndPathWrite()
	p.BeginPathWrite(1)
	p.SelectDup(1, geo.L)
	p.EndPathWrite()
}

// TestQueueDrainsInPriorityOrder: once every queued candidate is eligible
// (promoted to level 0, below any real copy and on any path), repeated
// pops must drain the queue highest priority first — exactly the
// selection a plain max-heap would make — and leave it empty.
func TestQueueDrainsInPriorityOrder(t *testing.T) {
	p, geo := drainPolicy(t)
	f := func(counts []uint16) bool {
		p.reset()
		want := make([]int64, 0, len(counts))
		for i, cnt := range counts {
			if i >= 128 {
				break
			}
			idx := p.newCandidate(uint32(i))
			c := &p.arena[idx]
			c.srcLevel = 1 // eligible at level 0 < srcLevel
			c.effLevel = 1
			c.isect = int32(geo.L)
			c.count = uint64(cnt)
			c.seq = p.seq
			p.seq++
			p.hd.place(p.arena, idx)
			want = append(want, hdPrio(c))
		}
		sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
		p.hd.promote(p.arena, 0)
		for _, wp := range want {
			idx := p.hd.pop()
			if idx < 0 || hdPrio(&p.arena[idx]) != wp {
				return false
			}
			if p.hd.loc[idx].pos != -1 {
				return false // consumed candidates must be dequeued
			}
		}
		return p.hd.pop() == -1 && len(p.hd.heap) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPopValidMatchesReference checks a single-slot selection against a
// straight re-derivation: after promoting to the probed level, the pop
// must be the highest-priority candidate that satisfies Rules 1–2 there,
// and every rejected candidate must remain queued afterwards.
func TestPopValidMatchesReference(t *testing.T) {
	p, geo := drainPolicy(t)
	f := func(raw []uint16, leaf uint32, lvl uint8) bool {
		leaf &= geo.NumLeaves() - 1
		level := int(lvl) % (geo.L + 1)
		p.reset()
		p.leaf = leaf
		for i, r := range raw {
			if i >= 64 {
				break
			}
			idx := p.newCandidate(uint32(i))
			c := &p.arena[idx]
			c.label = uint32(r) & (geo.NumLeaves() - 1)
			c.isect = int32(geo.IntersectLevel(c.label, leaf))
			c.srcLevel = int32(int(r>>4) % (geo.L + 1))
			c.effLevel = c.srcLevel
			c.count = uint64(r % 7)
			c.seq = p.seq
			p.seq++
			p.rd.place(p.arena, idx)
			p.hd.place(p.arena, idx)
		}
		for _, useHD := range []bool{false, true} {
			q := &p.rd
			prio := rdPrio
			if useHD {
				q = &p.hd
				prio = hdPrio
			}
			queued := func() int {
				n := 0
				for _, l := range q.loc {
					if l.pos >= 0 {
						n++
					}
				}
				return n
			}
			// Reference: best candidate by priority among valid ones.
			want := int32(-1)
			for i := range p.arena {
				c := &p.arena[i]
				if q.loc[i].pos < 0 {
					continue
				}
				if level < int(c.srcLevel) && (useHD || level < int(c.effLevel)) &&
					geo.IntersectLevel(c.label, leaf) >= level {
					if want < 0 || prio(c) > prio(&p.arena[want]) {
						want = int32(i)
					}
				}
			}
			before := queued()
			q.promote(p.arena, level)
			got := q.pop()
			if got != want {
				return false
			}
			// Everything except the consumed winner must still be queued,
			// with locations that agree with the heap and buckets.
			wantLen := before
			if got >= 0 {
				wantLen--
			}
			if queued() != wantLen || checkQueue(p, q) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueReprioritisesInPlace: re-queuing a queued candidate must replace
// its old priority, not add a second node.
func TestQueueReprioritisesInPlace(t *testing.T) {
	p, _ := drainPolicy(t)
	p.reset()
	idx := p.newCandidate(9)
	c := &p.arena[idx]
	c.srcLevel = 4
	c.isect = 10
	c.count = 10
	p.hd.place(p.arena, idx)
	p.hd.promote(p.arena, 2) // eligible below level 4: joins the heap
	if len(p.hd.heap) != 1 {
		t.Fatalf("heap holds %d nodes, want the one eligible candidate", len(p.hd.heap))
	}
	// Re-queue at a lower priority: the node is re-keyed in place.
	c.count = 5
	p.hd.place(p.arena, idx)
	if len(p.hd.heap) != 1 || p.hd.heap[0].prio != hdPrio(c) {
		t.Fatalf("re-queue left heap %+v", p.hd.heap)
	}
	got := p.hd.pop()
	if got != idx || p.arena[got].count != 5 {
		t.Fatalf("pop returned %d, want the re-prioritised candidate %d", got, idx)
	}
	if p.hd.loc[idx].pos != -1 {
		t.Fatal("consumed candidate still queued")
	}
	if again := p.hd.pop(); again != -1 || len(p.hd.heap) != 0 {
		t.Fatalf("second pop returned %d with %d heap nodes, want an empty queue", again, len(p.hd.heap))
	}
}

// TestQueuePositionsAreIndependent: consuming from one queue must leave the
// candidate queued in the other, as the RD and HD queues are separate.
func TestQueuePositionsAreIndependent(t *testing.T) {
	p, _ := drainPolicy(t)
	p.reset()
	idx := p.newCandidate(3)
	c := &p.arena[idx]
	c.srcLevel = 8
	c.effLevel = 8
	c.isect = 10
	c.count = 2
	p.rd.place(p.arena, idx)
	p.hd.place(p.arena, idx)
	if p.rd.loc[idx] != (qloc{bucket: 8, pos: 0}) || p.hd.loc[idx] != (qloc{bucket: 8, pos: 0}) {
		t.Fatalf("locations = %+v / %+v, want pending[8][0] in both queues", p.rd.loc[idx], p.hd.loc[idx])
	}
	p.hd.promote(p.arena, 3)
	if got := p.hd.pop(); got != idx {
		t.Fatal("HD consume failed")
	}
	if p.hd.loc[idx].pos != -1 {
		t.Fatalf("HD location = %+v after consume, want unqueued", p.hd.loc[idx])
	}
	if p.rd.loc[idx] != (qloc{bucket: 8, pos: 0}) || len(p.rd.pending[8]) != 1 {
		t.Fatal("HD consume disturbed the RD queue")
	}
}

func TestPriorityComposition(t *testing.T) {
	// Deeper level always outranks any sequence tie-break.
	deep := &candidate{effLevel: 10, seq: 0}
	shallow := &candidate{effLevel: 9, seq: 1 << 20}
	if rdPrio(deep) <= rdPrio(shallow) {
		t.Fatal("sequence outranked level in the RD queue")
	}
	// Later eviction wins ties (the paper's intra-bucket order rule).
	a := &candidate{effLevel: 10, seq: 1}
	b := &candidate{effLevel: 10, seq: 2}
	if rdPrio(b) <= rdPrio(a) {
		t.Fatal("earlier eviction outranked later at equal level")
	}
	hot := &candidate{count: 5, seq: 0}
	cold := &candidate{count: 4, seq: 1 << 19}
	if hdPrio(hot) <= hdPrio(cold) {
		t.Fatal("sequence outranked count in the HD queue")
	}
}
