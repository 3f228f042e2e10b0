package core

// The RD-queue and HD-queue (§V-B) are priority queues over duplication
// candidates. Priorities change as shadows are created (Fig. 4), so the
// queues must support re-prioritising a queued candidate.
//
// A plain max-heap keyed by priority is the wrong structure on its own:
// the policy does not want "the highest-priority candidate" but "the
// highest-priority candidate that passes Rules 1–2 at this slot", and most
// of the top of the heap fails them (a candidate cannot go below or at its
// real copy, nor off its own path). A heap therefore has to pop, reject,
// buffer and sift back in the rejected top for every slot; that churn plus
// lazy-deletion bookkeeping once cost ~45 % of whole-simulation CPU, which
// is why an unordered slice scanned per slot replaced it. The scan in turn
// read every queued candidate for every free slot — about 150 nodes per
// pick on the Fig. 11 sweep — and became the top symbol itself.
//
// The way out is that the rules are thresholds. The controller fills a
// path leaf to root, so within one path write the slot level never rises
// (oram.DupPolicy's call order, checked by Policy). A candidate is
// eligible at level ℓ iff ℓ < t, with
//
//	HD: t = min(srcLevel, isect+1)
//	RD: t = min(srcLevel, isect+1, effLevel)
//
// so once a candidate becomes eligible it stays eligible for the rest of
// the write until NoteEvict changes its fields. Each queue therefore keeps
// the candidates it cannot yet offer in pending[t] buckets, and an indexed
// max-heap of exactly the eligible ones. Selecting at level ℓ first moves
// every pending[t > ℓ] into the heap, then pops the heap's maximum: no
// candidate is ever examined and rejected. Priorities embed the unique
// per-write sequence number, so the maximum is unique and the pick is the
// one the scan would make, bit for bit.
//
// Nodes refer to candidates by index into the policy's per-write arena
// rather than by pointer, so one path write reuses the previous write's
// storage instead of allocating a candidate per eviction. Each queue
// records where every candidate sits in it (qloc, indexed like the arena),
// which is what lets a re-prioritisation fix the heap in place or move the
// candidate back to a pending bucket.

type queueKind uint8

const (
	byLevel queueKind = iota // RD-queue: deepest effective level first
	byCount                  // HD-queue: highest access count first
)

type queueNode struct {
	prio int64
	cand int32 // index into the policy's candidate arena
}

// inHeap is qloc.bucket for a candidate in the eligible heap.
const inHeap = -1

// qloc is a candidate's place in one queue: a pending bucket (its
// threshold) or the heap, and its index there; pos -1 means not queued.
type qloc struct {
	bucket int32
	pos    int32
}

// candQueue is one duplication queue: candidates not yet eligible wait in
// pending[t] (swap-remove buckets), eligible ones sit in a max-heap, and
// loc[i] says where candidate i is. Invariant: heap holds exactly the
// queued candidates whose threshold exceeds cur, the level of the queue's
// last selection in this path write (the tree's leaf level before the
// first one) — except that while held is set, heap[0] is the candidate the
// last pop returned, already unqueued, left at the root so the NoteEvict
// that re-queues it can re-key it in place (pop + push as one sift).
type candQueue struct {
	kind    queueKind
	heap    []queueNode
	pending [][]int32
	loc     []qloc
	cur     int
	held    bool
}

// bind sizes the pending buckets for a tree with leaf level maxLevel:
// every threshold lies in [0, maxLevel].
func (q *candQueue) bind(maxLevel int) { q.pending = make([][]int32, maxLevel+1) }

// reset empties the queue for the next path write.
func (q *candQueue) reset() {
	q.held = false
	q.heap = q.heap[:0]
	q.loc = q.loc[:0]
	for t := range q.pending {
		q.pending[t] = q.pending[t][:0]
	}
	q.cur = len(q.pending) - 1
}

// threshold returns the level below which c is eligible in this queue:
// the slot must be strictly above the real copy (Rule-2), on c's path
// (Rule-1: level <= isect) and, for RD-Dup, must improve c's effective
// arrival level. HD-Dup accepts zero-count candidates (the paper
// initialises absent addresses to priority zero).
func (q *candQueue) threshold(c *candidate) int {
	t := c.srcLevel
	if c.isect+1 < t {
		t = c.isect + 1
	}
	if q.kind == byLevel && c.effLevel < t {
		t = c.effLevel
	}
	return int(t)
}

func (q *candQueue) prio(c *candidate) int64 {
	if q.kind == byLevel {
		return rdPrio(c)
	}
	return hdPrio(c)
}

// place queues candidate idx where its current fields put it, moving it if
// it is already queued: into the heap if its threshold exceeds cur (a node
// already there is re-keyed in place), else into pending[threshold].
func (q *candQueue) place(arena []candidate, idx int32) {
	c := &arena[idx]
	t := q.threshold(c)
	if q.held && q.heap[0].cand == idx {
		// The candidate just popped is re-queued while its node still sits
		// at the root: treat it as queued there, so an unchanged threshold
		// (HD count halving) re-keys it in place.
		q.held = false
		q.loc[idx] = qloc{bucket: inHeap, pos: 0}
	}
	q.settle()
	if l := q.loc[idx]; l.pos >= 0 {
		switch {
		case t > q.cur && l.bucket == inHeap:
			q.fix(int(l.pos), q.prio(c))
			return
		case t <= q.cur && l.bucket == int32(t):
			return
		}
		q.unlink(idx)
	}
	if t > q.cur {
		q.loc[idx] = qloc{bucket: inHeap, pos: int32(len(q.heap))}
		q.heap = append(q.heap, queueNode{prio: q.prio(c), cand: idx})
		q.siftUp(len(q.heap) - 1)
		return
	}
	q.loc[idx] = qloc{bucket: int32(t), pos: int32(len(q.pending[t]))}
	q.pending[t] = append(q.pending[t], idx)
}

// unlink removes candidate idx from wherever it is queued.
func (q *candQueue) unlink(idx int32) {
	l := q.loc[idx]
	switch {
	case l.pos < 0:
		return
	case l.bucket == inHeap:
		q.removeHeapAt(int(l.pos))
	default:
		b := q.pending[l.bucket]
		last := len(b) - 1
		if int(l.pos) != last {
			b[l.pos] = b[last]
			q.loc[b[l.pos]].pos = l.pos
		}
		q.pending[l.bucket] = b[:last]
	}
	q.loc[idx].pos = -1
}

// promote makes the queue ready to select at level: every pending
// candidate with threshold > level joins the heap. Levels never rise
// within a path write, so each bucket is promoted at most once per write
// (a later NoteEvict may refill a bucket at or below the current level).
// A large batch is heapified in one pass, a small one sifted in.
func (q *candQueue) promote(arena []candidate, level int) {
	q.settle()
	if level >= q.cur {
		return
	}
	n0 := len(q.heap)
	for t := q.cur; t > level; t-- {
		for _, idx := range q.pending[t] {
			q.loc[idx] = qloc{bucket: inHeap, pos: int32(len(q.heap))}
			q.heap = append(q.heap, queueNode{prio: q.prio(&arena[idx]), cand: idx})
		}
		q.pending[t] = q.pending[t][:0]
	}
	q.cur = level
	if added := len(q.heap) - n0; added > n0 {
		for i := len(q.heap)/2 - 1; i >= 0; i-- {
			q.siftDown(i)
		}
	} else {
		for i := n0; i < len(q.heap); i++ {
			q.siftUp(i)
		}
	}
}

// pop removes and returns the highest-priority eligible candidate, or -1.
// The candidate is left unqueued in this queue; NoteEvict re-queues it at
// its new priority. Its node stays held at the root until then (see
// candQueue); any other operation settles the removal first.
func (q *candQueue) pop() int32 {
	q.settle()
	if len(q.heap) == 0 {
		return -1
	}
	top := q.heap[0].cand
	q.loc[top].pos = -1
	q.held = true
	return top
}

// settle completes a held pop: the consumed node leaves the heap.
func (q *candQueue) settle() {
	if q.held {
		q.held = false
		q.removeHeapAt(0)
	}
}

func (q *candQueue) removeHeapAt(i int) {
	last := len(q.heap) - 1
	if i == last {
		q.heap = q.heap[:last]
		return
	}
	n := q.heap[last]
	q.heap = q.heap[:last]
	old := q.heap[i].prio
	q.heap[i] = n
	if n.prio > old {
		q.siftUp(i)
	} else {
		q.siftDown(i)
	}
}

// fix re-keys heap node i.
func (q *candQueue) fix(i int, prio int64) {
	old := q.heap[i].prio
	q.heap[i].prio = prio
	if prio > old {
		q.siftUp(i)
	} else {
		q.siftDown(i)
	}
}

func (q *candQueue) siftUp(i int) {
	h := q.heap
	n := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].prio >= n.prio {
			break
		}
		h[i] = h[parent]
		q.loc[h[i].cand].pos = int32(i)
		i = parent
	}
	h[i] = n
	q.loc[n.cand].pos = int32(i)
}

func (q *candQueue) siftDown(i int) {
	h := q.heap
	n := h[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].prio > h[child].prio {
			child = r
		}
		if h[child].prio <= n.prio {
			break
		}
		h[i] = h[child]
		q.loc[h[i].cand].pos = int32(i)
		i = child
	}
	h[i] = n
	q.loc[n.cand].pos = int32(i)
}

// rdPrio orders by effective level (deepest first), breaking ties by
// eviction order — the block loaded/evicted later wins, matching the
// paper's Fig. 4 footnote about intra-bucket order. Priorities of distinct
// candidates never collide: the sequence number is unique per candidate
// within a path write.
func rdPrio(c *candidate) int64 { return int64(c.effLevel)<<32 | int64(c.seq) }

// hdPrio orders by Hot Address Cache count, same tie-break.
func hdPrio(c *candidate) int64 { return int64(c.count)<<20 | int64(c.seq) }
