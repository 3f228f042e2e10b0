package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"shadowblock/internal/core"
	"shadowblock/internal/crypt"
	"shadowblock/internal/kv"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/store"
	"shadowblock/internal/tree"
)

// The kv-mixed workload. shadowd runs with its defaults (mem backend,
// L=12, dynamic-3, 4 queue lanes, batches of 16).
const (
	kvKeys       = 512  // key universe, split into one disjoint shard per connection
	kvConns      = 2    // client connections: one per vCPU of the 2-vCPU host the load was sized on
	kvZipfS      = 1.2  // key popularity skew within a shard
	kvReadFrac   = 0.70 // GETs; then 2 % DELETEs, the rest PUTs
	kvDeleteFrac = 0.02
	kvVMax       = 40 // max value bytes
	// kvOpenRate is the open-loop offered load in requests per second over
	// all connections: about half the closed-loop capacity measured on a
	// 2-vCPU Xeon (9-10 k req/s with 2 connections).
	kvOpenRate = 4000
	// kvOpenShare is the share of --seconds the open-loop phase lasts; the
	// closed-loop phase gets most of the rest.
	kvOpenShare   = 0.45
	kvClosedShare = 0.40
	kvPassOps     = 1000 // ops per connection in one closed-loop pass
	kvStarts      = 5    // fresh shadowd starts timed for setup_s; the last one serves the run
	kvL           = 12   // shadowd's default tree level
	kvLanes       = 4    // shadowd's default queue lanes
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
)

// kvOp is one generated request with the answer read-your-writes demands:
// for a GET the value (found) or a 404; for a DELETE whether the key
// existed.
type kvOp struct {
	kind  opKind
	key   string
	value []byte // PUT body
	want  []byte // GET: expected value when found
	found bool   // GET/DELETE: whether the key holds a value
}

// opGen produces one connection's deterministic op sequence over its own
// key shard, tracking the values it wrote so every answer is checkable.
type opGen struct {
	conn   int
	r      *rand.Rand
	zipf   *rand.Zipf
	first  int
	span   int
	n      int
	expect map[int][]byte
}

func newOpGen(seed uint64, conn int) *opGen {
	r := rand.New(rand.NewSource(int64(seed)*1000003 + int64(conn)*7919 + 1))
	span := kvKeys / kvConns
	return &opGen{
		conn: conn, r: r, zipf: rand.NewZipf(r, kvZipfS, 1, uint64(span-1)),
		first: conn * span, span: span, expect: map[int][]byte{},
	}
}

// warm returns a PUT of every key in the shard (the untimed warm-up).
func (g *opGen) warm() []kvOp {
	ops := make([]kvOp, g.span)
	for i := range ops {
		k := g.first + i
		v := []byte(fmt.Sprintf("warm-c%d-k%d", g.conn, k))
		g.expect[k] = v
		ops[i] = kvOp{kind: opPut, key: fmt.Sprintf("key-%d", k), value: v}
	}
	return ops
}

// next returns the next mixed op.
func (g *opGen) next() kvOp {
	g.n++
	k := g.first + int(g.zipf.Uint64())
	key := fmt.Sprintf("key-%d", k)
	roll := g.r.Float64()
	switch {
	case roll < kvReadFrac:
		v, ok := g.expect[k]
		return kvOp{kind: opGet, key: key, want: v, found: ok}
	case roll < kvReadFrac+kvDeleteFrac:
		_, ok := g.expect[k]
		delete(g.expect, k)
		return kvOp{kind: opDelete, key: key, found: ok}
	default:
		// A trailing NUL on every third value exercises the length framing.
		v := []byte(fmt.Sprintf("c%d-k%d-i%d", g.conn, k, g.n))
		if g.n%3 == 0 {
			v = append(v, 0)
		}
		if len(v) > kvVMax {
			v = v[:kvVMax]
		}
		g.expect[k] = v
		return kvOp{kind: opPut, key: key, value: v}
	}
}

// check compares a response with what the op demands.
func (op kvOp) check(status int, body []byte) error {
	switch op.kind {
	case opGet:
		switch {
		case op.found && status != http.StatusOK:
			return fmt.Errorf("GET %s: status %d, want 200", op.key, status)
		case op.found && !bytes.Equal(body, op.want):
			return fmt.Errorf("GET %s: %q, want %q (read-your-writes violated)", op.key, body, op.want)
		case !op.found && status != http.StatusNotFound:
			return fmt.Errorf("GET %s: status %d for an absent key, want 404", op.key, status)
		}
	case opPut:
		if status != http.StatusNoContent {
			return fmt.Errorf("PUT %s: status %d, want 204", op.key, status)
		}
	case opDelete:
		want := http.StatusNotFound
		if op.found {
			want = http.StatusNoContent
		}
		if status != want {
			return fmt.Errorf("DELETE %s: status %d, want %d", op.key, status, want)
		}
	}
	return nil
}

// shadowd is one running server process.
type shadowd struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	stderr *bytes.Buffer
}

// startShadowd launches a fresh server on a free port and returns once
// /healthz answers 200, with the time that took.
func startShadowd(bin, dir string, n int) (*shadowd, time.Duration, error) {
	addrFile := filepath.Join(dir, fmt.Sprintf("shadowd-%d-%d.addr", os.Getpid(), n))
	os.Remove(addrFile)
	s := &shadowd{stderr: &bytes.Buffer{}, exited: make(chan error, 1)}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	s.cmd.Stderr = s.stderr
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting shadowd: %w", err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	defer os.Remove(addrFile)

	deadline := t0.Add(30 * time.Second)
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	for time.Now().Before(deadline) {
		select {
		case err := <-s.exited:
			return nil, 0, fmt.Errorf("shadowd exited during start-up: %v\n%s", err, s.stderr)
		default:
		}
		if s.base == "" {
			b, err := os.ReadFile(addrFile)
			if _, _, perr := net.SplitHostPort(string(b)); err != nil || perr != nil {
				time.Sleep(time.Millisecond)
				continue
			}
			s.base = "http://" + string(b)
		}
		// The listener is bound before the ORAM is built, so this request
		// waits in the accept backlog until the server is ready.
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("shadowd not healthy after 30s\n%s", s.stderr)
}

// stop terminates the server and waits for it to exit.
func (s *shadowd) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *shadowd) pid() int { return s.cmd.Process.Pid }

// statsz is the part of shadowd's /statsz body the benchmark reads.
type statsz struct {
	GetNanos metrics.LatencySummary `json:"get_ns"`
	PutNanos metrics.LatencySummary `json:"put_ns"`
	Queue    oram.QueueStats        `json:"queue"`
}

// requests is how many ORAM requests the server's front end has served.
func (s statsz) requests() uint64 { return s.Queue.Issued + s.Queue.OnChip + s.Queue.Coalesced }

func (s *shadowd) stats(c *http.Client) (statsz, error) {
	var st statsz
	resp, err := c.Get(s.base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// do sends one op and returns its status and body.
func do(c *http.Client, base string, op kvOp) (int, []byte, error) {
	url := base + "/kv/" + op.key
	var req *http.Request
	var err error
	switch op.kind {
	case opGet:
		req, err = http.NewRequest(http.MethodGet, url, nil)
	case opPut:
		req, err = http.NewRequest(http.MethodPut, url, bytes.NewReader(op.value))
	default:
		req, err = http.NewRequest(http.MethodDelete, url, nil)
	}
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// opSample is one timed request: from its due time and from its send.
type opSample struct {
	kind      opKind
	fromDue   time.Duration
	fromSend  time.Duration
	late      time.Duration
	succeeded bool
}

// failLog collects failures from several goroutines.
type failLog struct {
	mu    sync.Mutex
	count int
	first []string
}

func (f *failLog) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if len(f.first) < maxFailures {
		f.first = append(f.first, err.Error())
	}
}

// kvRun is everything one kv-mixed session measured.
type kvRun struct {
	setup     samples
	open      []opSample
	passWalls samples
	passRates samples
	cpuPerRef float64
	closedRPS float64
	rssMB     float64
	svc       statsz // /statsz after the open-loop phase
	attempted int
	fails     failLog
	replayOps []kvOp
}

// kvSession starts fresh servers, keeps the last, drives warm-up, the
// open-loop phase and the closed-loop phase over HTTP, and stops it.
func kvSession(bin, dir string, seed uint64, secs float64) (*kvRun, error) {
	run := &kvRun{}
	var srv *shadowd
	for i := 0; i < kvStarts; i++ {
		s, d, err := startShadowd(bin, dir, i)
		if err != nil {
			return nil, err
		}
		run.setup = append(run.setup, d.Seconds())
		if i < kvStarts-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: kvConns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()

	gens := make([]*opGen, kvConns)
	for c := range gens {
		gens[c] = newOpGen(seed, c)
	}
	// Warm-up, untimed: fill every key and open the connections.
	warm := make([][]kvOp, kvConns)
	for c := range warm {
		warm[c] = gens[c].warm()
	}
	parallel(kvConns, func(c int) {
		for _, op := range warm[c] {
			run.exec(client, srv.base, op)
		}
	})
	run.attempted += kvKeys

	// Open loop: each connection sends on a fixed schedule regardless of
	// replies; latency counts from when a request was due.
	perConn := int(kvOpenRate / kvConns * kvOpenShare * secs)
	if perConn < 1 {
		perConn = 1
	}
	openOps := make([][]kvOp, kvConns)
	for c := range openOps {
		openOps[c] = make([]kvOp, perConn)
		for i := range openOps[c] {
			openOps[c][i] = gens[c].next()
		}
	}
	interval := time.Duration(float64(time.Second) * kvConns / kvOpenRate)
	res := make([][]opSample, kvConns)
	t0 := time.Now()
	parallel(kvConns, func(c int) {
		res[c] = make([]opSample, 0, perConn)
		for i, op := range openOps[c] {
			due := t0.Add(time.Duration(i) * interval)
			waitUntil(due)
			send := time.Now()
			ok := run.exec(client, srv.base, op)
			done := time.Now()
			res[c] = append(res[c], opSample{kind: op.kind, fromDue: done.Sub(due), fromSend: done.Sub(send), late: send.Sub(due), succeeded: ok})
		}
	})
	for _, r := range res {
		run.open = append(run.open, r...)
	}
	run.attempted += len(run.open)
	svc, err := srv.stats(client)
	if err != nil {
		return nil, fmt.Errorf("/statsz: %w", err)
	}
	run.svc = svc

	// Closed loop: back-to-back passes until the phase budget is spent.
	budget := time.Duration(kvClosedShare * secs * float64(time.Second))
	var refs uint64
	var closedWall time.Duration
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	err = budgetLoop(budget, 3, func() (time.Duration, error) {
		before, err := srv.stats(client)
		if err != nil {
			return 0, err
		}
		pass := make([][]kvOp, kvConns)
		for c := range pass {
			pass[c] = make([]kvOp, kvPassOps)
			for i := range pass[c] {
				pass[c][i] = gens[c].next()
			}
		}
		t0 := time.Now()
		parallel(kvConns, func(c int) {
			for _, op := range pass[c] {
				run.exec(client, srv.base, op)
			}
		})
		wall := time.Since(t0)
		run.attempted += kvConns * kvPassOps
		after, err := srv.stats(client)
		if err != nil {
			return 0, err
		}
		n := after.requests() - before.requests()
		refs += n
		closedWall += wall
		run.passWalls = append(run.passWalls, wall.Seconds())
		run.passRates = append(run.passRates, float64(n)/wall.Seconds())
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	run.closedRPS = float64(len(run.passWalls)*kvConns*kvPassOps) / closedWall.Seconds()
	if refs > 0 {
		run.cpuPerRef = float64((cpu1 - cpu0).Microseconds()) / float64(refs)
	}
	if run.rssMB, err = peakRSSMB(srv.pid()); err != nil {
		return nil, err
	}

	// The replayed sequence is the part whose length does not depend on
	// timing: the warm-up and the open-loop ops, connections interleaved.
	for c := range warm {
		run.replayOps = append(run.replayOps, warm[c]...)
	}
	for i := 0; i < perConn; i++ {
		for c := range openOps {
			run.replayOps = append(run.replayOps, openOps[c][i])
		}
	}
	return run, nil
}

// exec sends one op, checks it, and records a failure; it reports success.
func (run *kvRun) exec(c *http.Client, base string, op kvOp) bool {
	status, body, err := do(c, base, op)
	if err == nil {
		err = op.check(status, body)
	}
	if err != nil {
		run.fails.add(err)
		return false
	}
	return true
}

// waitUntil blocks until t. time.Sleep wakes about 1 ms late on Linux,
// twice the open loop's 500 µs send interval, so the wait is a nanosleep
// system call instead (tens of µs late; the lateness is reported).
func waitUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// parallel runs fn(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// latencies splits the open-loop samples by op kind, in µs from due time.
// A failed request counts as over every latency limit.
func (run *kvRun) latencies(kind opKind) samples {
	var out samples
	for _, s := range run.open {
		if s.kind != kind {
			continue
		}
		v := float64(s.fromDue.Nanoseconds()) / 1e3
		if !s.succeeded {
			v = 1e12
		}
		out = append(out, v)
	}
	return out
}

// replayResult is the outcome of replaying the op sequence in process.
type replayResult struct {
	cycles    int64
	accesses  int // ops that reached the ORAM front end
	userBytes int64
	cell      cellResult
	backend   *tracedBackend // traced replays only
	ledger    *metrics.LedgerReport
}

// replay drives the op sequence through the same stack shadowd builds
// (functional Path ORAM, L=12, dynamic-3, kv framing and directory) one op
// per simulated batch, checking read-your-writes on every GET. With a
// tracer it wraps the policy and the storage backend; with a collector it
// attaches the cycle ledger. Neither may change the cycles.
func replay(ops []kvOp, t *tracer, mc *metrics.Collector) (replayResult, error) {
	var res replayResult
	ocfg := oram.Default()
	ocfg.L = kvL
	ocfg.Functional = true
	if t != nil {
		geo, err := tree.NewGeometry(ocfg.L, ocfg.Z)
		if err != nil {
			return res, err
		}
		res.backend = &tracedBackend{b: store.NewMem(geo.NumBuckets(), ocfg.Z), t: t}
		ocfg.Store = res.backend
	}
	t.begin(lNewEngine)
	pol, err := core.NewUnbound(core.Dynamic(3))
	var dup oram.DupPolicy = pol
	var wrapped *tracedPolicy
	if t != nil {
		wrapped = &tracedPolicy{p: pol, t: t}
		dup = wrapped
	}
	var eng oram.Engine
	if err == nil {
		eng, err = oram.NewEngine(oram.PathEngine, ocfg, dup)
	}
	t.end()
	if err != nil {
		return res, err
	}
	if res.backend != nil {
		// Count only the traffic of the requests, not the initial tree.
		res.backend.reset()
		t.aggs[lStoreRead], t.aggs[lStoreWrite] = agg{}, agg{}
	}
	if mc != nil {
		eng.SetMetrics(mc)
		pol.SetMetrics(mc)
	}
	q := oram.NewQueue(eng, kvLanes)
	if mc != nil {
		q.SetMetrics(mc)
	}
	ctrl := q.Controller()
	dir := kv.NewDirectory(eng.NumDataBlocks())
	zero, err := kv.EncodeValue(nil, ctrl.BlockBytes())
	if err != nil {
		return res, err
	}
	var now int64
	for i, op := range ops {
		if t != nil {
			t.req = int64(i + 1)
		}
		t.begin(lKVOp)
		done, err := replayOne(q, dir, zero, now, op, t, &res)
		t.end()
		if err != nil {
			return res, fmt.Errorf("replay op %d: %w", i, err)
		}
		if done > now {
			now = done
		}
		now++
	}
	res.cycles = now
	if d := eng.Drain(); d > res.cycles {
		res.cycles = d
	}
	res.cell = cellResult{cycles: res.cycles, oram: eng.Stats(), queue: q.Stats(), mem: eng.MemStats(), stashMaxReal: ctrl.StashMaxReal()}
	if wrapped != nil {
		res.cell.shadows = wrapped.shadows
	}
	if mc != nil {
		res.ledger = mc.Ledger.Report()
	}
	return res, nil
}

// replayOne serves one op the way shadowd's serveOne does and checks it.
func replayOne(q *oram.Queue, dir *kv.Directory, zero []byte, now int64, op kvOp, t *tracer, res *replayResult) (int64, error) {
	switch op.kind {
	case opGet:
		addr, ok := dir.Lookup(op.key)
		if !ok {
			if op.found {
				return now, fmt.Errorf("GET %s: absent, want %q", op.key, op.want)
			}
			return now, nil
		}
		res.accesses++
		t.begin(lQRead)
		data, out := q.Read(now, 0, addr)
		t.end()
		v, err := kv.DecodeValue(data)
		switch {
		case err != nil:
			return now, err
		case !op.found:
			return now, fmt.Errorf("GET %s: %q for an absent key", op.key, v)
		case !bytes.Equal(v, op.want):
			return now, fmt.Errorf("GET %s: %q, want %q (read-your-writes violated)", op.key, v, op.want)
		}
		return out.Done, nil
	case opPut:
		blk, err := kv.EncodeValue(op.value, q.Controller().BlockBytes())
		if err != nil {
			return now, err
		}
		addr, err := dir.Assign(op.key)
		if err != nil {
			return now, err
		}
		res.accesses++
		res.userBytes += int64(len(op.value))
		t.begin(lQWrite)
		out, err := q.Write(now, 0, addr, blk)
		t.end()
		return out.Done, err
	default:
		addr, ok := dir.Remove(op.key)
		if ok != op.found {
			return now, fmt.Errorf("DELETE %s: existed=%t, want %t", op.key, ok, op.found)
		}
		if !ok {
			return now, nil
		}
		res.accesses++
		t.begin(lQWrite)
		out, err := q.Write(now, 0, addr, zero)
		t.end()
		return out.Done, err
	}
}

// cryptCost times crypt.Engine sealing and opening one block of shadowd's
// size: the median ns per call over batches.
func cryptCost() (seal, open float64, err error) {
	e, err := crypt.NewEngine(make([]byte, 16))
	if err != nil {
		return 0, 0, err
	}
	pt := make([]byte, oram.Default().BlockBytes)
	ct := e.Encrypt(pt)
	const batch, batches = 2000, 15
	var s, o samples
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			ct = e.Encrypt(pt)
		}
		s = append(s, float64(time.Since(t0).Nanoseconds())/batch)
		t0 = time.Now()
		for i := 0; i < batch; i++ {
			if _, err := e.Decrypt(ct); err != nil {
				return 0, 0, err
			}
		}
		o = append(o, float64(time.Since(t0).Nanoseconds())/batch)
	}
	return s.median(), o.median(), nil
}

// runKV is kv-mixed.
func runKV(o options) (outcome, error) {
	var out outcome
	if _, err := os.Stat(o.shadowd); err != nil {
		return out, fmt.Errorf("shadowd binary: %w", err)
	}
	run, err := kvSession(o.shadowd, o.outDir, o.seed, o.seconds)
	if err != nil {
		return out, err
	}
	out.attempted = run.attempted
	out.failed = run.fails.count
	out.failures = run.fails.first

	get, put := run.latencies(opGet), run.latencies(opPut)
	var late samples
	for _, s := range run.open {
		late = append(late, float64(s.late.Nanoseconds())/1e3)
	}
	fmt.Printf("kv-mixed: %d keys, %d connections, open loop %d req/s offered for %d requests, closed loop %d passes of %d requests\n",
		kvKeys, kvConns, kvOpenRate, len(run.open), len(run.passWalls), kvConns*kvPassOps)
	fmt.Printf("kv_get_us (open loop, from due time) %s\n", get.describe(1, "us"))
	fmt.Printf("kv_put_us (open loop, from due time) %s\n", put.describe(1, "us"))
	fmt.Printf("loadgen lateness %s\n", late.describe(1, "us"))
	fmt.Printf("kv_closed_rps %.1f; setup_s %s; pass wall %s\n", run.closedRPS, run.setup.describe(1, "s"), run.passWalls.describe(1, "s"))

	// The deterministic replay gives the simulated cycles and, traced,
	// the per-layer split of the in-process stack.
	t0 := time.Now()
	plain, err := replay(run.replayOps, nil, nil)
	plainWall := time.Since(t0)
	if err != nil {
		out.failf("replay: %v", err)
		return out, nil
	}
	out.attempted += len(run.replayOps)
	if plain.cell.oram.Anomalies != 0 {
		out.failf("replay: %d anomalies", plain.cell.oram.Anomalies)
	}
	fmt.Printf("replay: %d ops, %d ORAM accesses, %d simulated cycles\n", len(run.replayOps), plain.accesses, plain.cycles)

	if !o.traced {
		out.set("setup_s", run.setup.median(), "s")
		out.set("wall_s", run.passWalls.median(), "s")
		out.set("sim_refs_per_s", run.passRates.median(), "refs/s")
		out.set("cpu_us_per_ref", run.cpuPerRef, "us")
		out.set("peak_rss_mb", run.rssMB, "MB")
		out.set("sim_cycles", float64(plain.cycles), "cycles")
		return out, nil
	}

	t := newTracer()
	t0 = time.Now()
	traced, err := replay(run.replayOps, t, nil)
	tracedWall := time.Since(t0)
	if err != nil {
		out.failf("traced replay: %v", err)
		return out, nil
	}
	observed, err := replay(run.replayOps, nil, metrics.New(metrics.Options{Ledger: true}))
	if err != nil {
		out.failf("observed replay: %v", err)
		return out, nil
	}
	if traced.cycles != plain.cycles || observed.cycles != plain.cycles {
		out.failf("replay cycles differ: untraced %d, traced %d, observed %d", plain.cycles, traced.cycles, observed.cycles)
	}
	sealNs, openNs, err := cryptCost()
	if err != nil {
		return out, err
	}
	be := traced.backend
	acc := float64(traced.accesses)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var fromSend samples
	for _, s := range run.open {
		if s.kind == opGet && s.succeeded {
			fromSend = append(fromSend, float64(s.fromSend.Nanoseconds())/1e3)
		}
	}
	v := map[string]float64{
		"oram.new_engine_s":                 t.total(lNewEngine),
		"core.select_dup_s":                 t.total(lSelectDup),
		"core.note_evict_s":                 t.total(lNoteEvict),
		"core.other_s":                      t.total(lCoreOther),
		"kv.self_s":                         t.self(lKVOp),
		"oram.read_s":                       t.total(lQRead),
		"oram.write_s":                      t.total(lQWrite),
		"store.read_bucket_s":               t.total(lStoreRead),
		"store.write_bucket_s":              t.total(lStoreWrite),
		"store.bucket_ops_per_req":          float64(be.reads+be.writes) / acc,
		"store.bytes_written_per_user_byte": float64(be.bytesWritten) / float64(traced.userBytes),
		"crypt.seal_ns":                     sealNs,
		"crypt.open_ns":                     openNs,
		"crypt.seals_per_req":               float64(be.seals) / acc,
		"crypt.opens_per_req":               float64(be.reads-be.writes) / acc,
		"trace.overhead_s":                  (tracedWall - plainWall).Seconds(),
		"trace.overhead_frac":               (tracedWall - plainWall).Seconds() / plainWall.Seconds(),
		"kv.get_p50_us":                     get.median(),
		"kv.get_p99_us":                     get.pct(99),
		"kv.put_p50_us":                     put.median(),
		"kv.put_p99_us":                     put.pct(99),
		"kv.closed_rps":                     run.closedRPS,
		"kv.fail_frac":                      float64(run.fails.count) / float64(run.attempted),
		"shadowd.service_get_us_p50":        us(run.svc.GetNanos.P50),
		"shadowd.service_put_us_p50":        us(run.svc.PutNanos.P50),
		"shadowd.overhead_get_us_p50":       fromSend.median() - us(run.svc.GetNanos.P50),
		"loadgen.late_p99_us":               late.pct(99),
	}
	traced.cell.counts(v)
	if lr := observed.ledger; lr != nil {
		addLedger(v, lr)
		if lr.Violations != 0 {
			out.failf("replay: %d ledger violations", lr.Violations)
		}
	}
	fmt.Printf("traced replay %.3fs vs untraced %.3fs; shadowd GET service p50 %.1f us vs client p50 %.1f us from send\n",
		tracedWall.Seconds(), plainWall.Seconds(), us(run.svc.GetNanos.P50), fromSend.median())
	if err := t.write(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed)), hostLabel(o)); err != nil {
		return out, err
	}
	setPerLayer(&out, v)
	return out, nil
}
