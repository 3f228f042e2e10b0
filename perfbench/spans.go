package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"shadowblock/internal/block"
	"shadowblock/internal/core"
	"shadowblock/internal/oram"
	"shadowblock/internal/stash"
	"shadowblock/internal/store"
	"shadowblock/internal/trace"
	"shadowblock/internal/tree"
)

// layer names one kind of span: a call into a layer's public function,
// timed from outside the program.
type layer int

const (
	lCPU        layer = iota // cpu.RunSources / cpu.RunSourcesMemory
	lTraceNext               // trace.Source.Next
	lNewEngine               // oram.NewEngine
	lIssue                   // oram.Queue.Issue (via cpu.CoreMemory)
	lDirect                  // the insecure baseline's DRAM access
	lSelectDup               // core.Policy.SelectDup
	lNoteEvict               // core.Policy.NoteEvict
	lCoreOther               // every other oram.DupPolicy method
	lKVOp                    // one replayed KV operation (directory + framing + ORAM)
	lQRead                   // oram.Queue.Read
	lQWrite                  // oram.Queue.Write
	lStoreRead               // store.Backend.ReadBucket
	lStoreWrite              // store.Backend.WriteBucket
	numLayers
)

var layerNames = [numLayers]string{
	"cpu.run", "trace.next", "oram.new_engine", "oram.issue", "dram.direct",
	"core.select_dup", "core.note_evict", "core.other",
	"kv.op", "oram.read", "oram.write", "store.read_bucket", "store.write_bucket",
}

// span is one recorded call. Parent is the enclosing span's ID (-1 at the
// root); Req is the request the call served (0 outside any request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
}

// agg accumulates one layer: calls, total span time, and self time (span
// time minus the time its child spans cover).
type agg struct {
	count int64
	total time.Duration
	self  time.Duration
}

type frame struct {
	l     layer
	start time.Duration
	child time.Duration
	id    int64
}

// tracer records spans for one goroutine. Aggregates cover every span;
// the span log keeps the first maxSpans and counts the rest as dropped,
// so memory stays bounded on sweeps with tens of millions of calls.
type tracer struct {
	epoch   time.Time
	stack   []frame
	aggs    [numLayers]agg
	log     []span
	dropped int64
	nextID  int64
	req     int64 // current request id
}

const maxSpans = 50_000

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), stack: make([]frame, 0, 16)}
}

// begin opens a span; begin and end are no-ops on a nil tracer, so the
// untraced paths share code with the traced ones.
func (t *tracer) begin(l layer) {
	if t == nil {
		return
	}
	t.nextID++
	t.stack = append(t.stack, frame{l: l, start: time.Since(t.epoch), id: t.nextID})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	end := time.Since(t.epoch)
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := end - f.start
	a := &t.aggs[f.l]
	a.count++
	a.total += d
	a.self += d - f.child
	parent := int64(-1)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
		parent = t.stack[n-1].id
	}
	if len(t.log) < maxSpans {
		t.log = append(t.log, span{
			Name: layerNames[f.l], Start: int64(f.start), End: int64(end),
			ID: f.id, Parent: parent, Req: t.req,
		})
	} else {
		t.dropped++
	}
}

// nextReq opens a new request id.
func (t *tracer) nextReq() {
	if t != nil {
		t.req++
	}
}

func (t *tracer) total(l layer) float64 { return t.aggs[l].total.Seconds() }
func (t *tracer) self(l layer) float64  { return t.aggs[l].self.Seconds() }

// write stores the span log as JSON lines after a header line carrying
// the host label and the aggregates.
func (t *tracer) write(path, label string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	header := map[string]any{"host": label, "spans_kept": len(t.log), "spans_dropped": t.dropped}
	layers := map[string]map[string]float64{}
	for l := layer(0); l < numLayers; l++ {
		a := t.aggs[l]
		if a.count > 0 {
			layers[layerNames[l]] = map[string]float64{
				"count": float64(a.count), "total_s": a.total.Seconds(), "self_s": a.self.Seconds(),
			}
		}
	}
	header["layers"] = layers
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.log {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSource times trace.Source.Next.
type tracedSource struct {
	src trace.Source
	t   *tracer
}

func (s tracedSource) Next() (trace.Access, bool) {
	s.t.begin(lTraceNext)
	a, ok := s.src.Next()
	s.t.end()
	return a, ok
}

// tracedQueue times the front end through the cpu.CoreMemory seam; each
// call opens a new request id.
type tracedQueue struct {
	q *oram.Queue
	t *tracer
}

func (m tracedQueue) Issue(now int64, core int, addr uint32, write bool) (int64, int64) {
	m.t.nextReq()
	m.t.begin(lIssue)
	f, d := m.q.Issue(now, core, addr, write)
	m.t.end()
	return f, d
}

// tracedMemory times the insecure baseline's direct DRAM accesses through
// the cpu.Memory seam.
type tracedMemory struct {
	m *directMemory
	t *tracer
}

func (m tracedMemory) Request(now int64, addr uint32, write bool) (int64, int64) {
	m.t.nextReq()
	m.t.begin(lDirect)
	f, d := m.m.Request(now, addr, write)
	m.t.end()
	return f, d
}

// tracedPolicy times every oram.DupPolicy method of the duplication policy
// and counts the shadows SelectDup creates. It forwards BindGeometry, so
// engine construction binds the wrapped policy exactly as it binds an
// unwrapped one.
type tracedPolicy struct {
	p       *core.Policy
	t       *tracer
	shadows int64
}

var (
	_ oram.DupPolicy      = (*tracedPolicy)(nil)
	_ oram.GeometryBinder = (*tracedPolicy)(nil)
)

func (w *tracedPolicy) BindGeometry(geo tree.Geometry, st *stash.Stash) error {
	return w.p.BindGeometry(geo, st)
}

func (w *tracedPolicy) BeginPathWrite(leaf uint32) {
	w.t.begin(lCoreOther)
	w.p.BeginPathWrite(leaf)
	w.t.end()
}

func (w *tracedPolicy) NoteEvict(m block.Meta, level int) {
	w.t.begin(lNoteEvict)
	w.p.NoteEvict(m, level)
	w.t.end()
}

func (w *tracedPolicy) SelectDup(leaf uint32, level int) (block.Meta, bool) {
	w.t.begin(lSelectDup)
	m, ok := w.p.SelectDup(leaf, level)
	w.t.end()
	if ok {
		w.shadows++
	}
	return m, ok
}

func (w *tracedPolicy) EndPathWrite() {
	w.t.begin(lCoreOther)
	w.p.EndPathWrite()
	w.t.end()
}

func (w *tracedPolicy) NoteLLCMiss(addr uint32) {
	w.t.begin(lCoreOther)
	w.p.NoteLLCMiss(addr)
	w.t.end()
}

func (w *tracedPolicy) NoteORAMRequest(dummy bool) {
	w.t.begin(lCoreOther)
	w.p.NoteORAMRequest(dummy)
	w.t.end()
}

func (w *tracedPolicy) ShadowPriority(addr uint32) uint64 {
	w.t.begin(lCoreOther)
	v := w.p.ShadowPriority(addr)
	w.t.end()
	return v
}

// tracedBackend times the sealed-bucket storage seam and counts its
// traffic. The controller updates one slot at a time by reading the
// bucket and writing it back, and reads a bucket alone only to open a
// payload; so opens = reads - writes, and a write that installs a new
// non-nil slot is one seal.
type tracedBackend struct {
	b store.Backend
	t *tracer

	reads, writes, seals int64
	bytesWritten         int64
	last                 [][]byte // slot headers of the last bucket read
	lastBucket           int
}

func (s *tracedBackend) ReadBucket(bucket int) ([][]byte, error) {
	s.t.begin(lStoreRead)
	slots, err := s.b.ReadBucket(bucket)
	s.t.end()
	s.reads++
	s.last = append(s.last[:0], slots...)
	s.lastBucket = bucket
	return slots, err
}

func (s *tracedBackend) WriteBucket(bucket int, slots [][]byte) error {
	for i, p := range slots {
		if len(p) == 0 {
			continue
		}
		s.bytesWritten += int64(len(p))
		if bucket != s.lastBucket || i >= len(s.last) || len(s.last[i]) == 0 || &s.last[i][0] != &p[0] {
			s.seals++
		}
	}
	s.writes++
	s.t.begin(lStoreWrite)
	err := s.b.WriteBucket(bucket, slots)
	s.t.end()
	return err
}

func (s *tracedBackend) Close() error { return s.b.Close() }

// reset zeroes the traffic counters (after the initial tree population).
func (s *tracedBackend) reset() {
	s.reads, s.writes, s.seals, s.bytesWritten = 0, 0, 0, 0
}
