package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
	"shadowblock/internal/dram"
	"shadowblock/internal/experiments"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/sim"
	"shadowblock/internal/stats"
	"shadowblock/internal/trace"
)

// fig11Schemes are the four schemes experiments.Fig11 evaluates, in its
// column order (static level 7 is Fig11's fixed choice).
var fig11Schemes = []string{"insecure", "tiny", "static-7", "dynamic-3"}

// The sim-quad cell: one long 4-core O3 run with no duplication policy.
const (
	quadBench  = "mcf"
	quadScheme = "tiny-pipe-c4-wbd-core4"
	quadRefs   = 20000 // per core
	quadSeeds  = 4     // trace seeds per run
)

// setupBuilds is how many engines a sim run builds to time set-up.
const setupBuilds = 5

// sweepRunner is experiments.Quick() with the workload seed.
func sweepRunner(seed uint64) experiments.Runner {
	r := experiments.Quick()
	r.Seed = seed
	return r
}

func parseSchemes(names []string) ([]experiments.Scheme, error) {
	out := make([]experiments.Scheme, len(names))
	for i, n := range names {
		s, err := experiments.ParseScheme(n)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// cellSpec assembles the sim.Spec experiments.Runner runs for one
// (workload, scheme) cell; TestCellSpecMatchesRunner pins the two equal.
func cellSpec(r experiments.Runner, p trace.Profile, cpuCfg cpu.Config, s experiments.Scheme) sim.Spec {
	if s.Cores > 0 {
		cpuCfg.Cores = s.Cores
	}
	ocfg := oram.Default()
	ocfg.TimingProtection = s.TP
	ocfg.TreetopLevels = s.Treetop
	ocfg.XOR = s.XOR
	ocfg.Pipeline = s.Pipeline
	ocfg.Channels = s.Channels
	ocfg.WBDecoupled = s.WBDecoupled
	return sim.Spec{
		Profile: p, CPU: cpuCfg, Refs: r.Refs, Seed: r.Seed,
		Insecure: s.Insecure, Engine: s.Engine, ORAM: ocfg, Policy: s.Policy,
	}
}

// quadSpecs are the sim-quad cells: the same cell under quadSeeds trace
// seeds derived from the workload seed. One 20k-refs/core cell's host
// time moves by up to 15 % from one trace seed to the next; rotating over
// four and averaging their medians keeps that out of run-to-run spread.
func quadSpecs(seed uint64) ([]sim.Spec, error) {
	p, ok := trace.ByName(quadBench)
	if !ok {
		return nil, fmt.Errorf("no profile %q", quadBench)
	}
	s, err := experiments.ParseScheme(quadScheme)
	if err != nil {
		return nil, err
	}
	specs := make([]sim.Spec, quadSeeds)
	for k := range specs {
		r := experiments.Runner{Refs: quadRefs, Seed: seed*quadSeeds + uint64(k)}
		specs[k] = cellSpec(r, p, cpu.O3(), s)
	}
	return specs, nil
}

// newPolicy builds the spec's unbound duplication policy (nil for none).
func newPolicy(spec sim.Spec) (*core.Policy, error) {
	if spec.Policy == nil {
		return nil, nil
	}
	return core.NewUnbound(*spec.Policy)
}

// setupTimes builds the spec's engine n times, each after a collection so
// the previous engine's garbage is not charged to the next build, and
// returns the wall-clock of each oram.NewEngine call (policy included).
func setupTimes(spec sim.Spec, n int) (samples, error) {
	var out samples
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		pol, err := newPolicy(spec)
		if err != nil {
			return nil, err
		}
		var dup oram.DupPolicy
		if pol != nil {
			dup = pol
		}
		if _, err := oram.NewEngine(oram.PathEngine, spec.ORAM, dup); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// cellResult is what the benchmark reads back from one simulated cell.
type cellResult struct {
	cycles       int64
	refs         uint64
	oram         oram.Stats
	queue        oram.QueueStats
	mem          dram.Stats
	shadows      int64 // shadows the policy created (traced runs only)
	stashMaxReal int   // traced runs only
}

func fromMetrics(m sim.Metrics) cellResult {
	return cellResult{cycles: m.Cycles, refs: m.CPU.References, oram: m.ORAM, queue: m.Queue, mem: m.Mem}
}

// directMemory is the insecure baseline's memory: each LLC miss is one
// DRAM block access, serialised behind the previous one (sim.Run's
// unexported insecureMemory, rebuilt from its public parts).
type directMemory struct {
	mem        *dram.Memory
	blockBytes int
	lastFree   int64
}

func (m *directMemory) Request(now int64, addr uint32, write bool) (int64, int64) {
	start := now
	if m.lastFree > start {
		start = m.lastFree
	}
	done := m.mem.Access(start, uint64(addr)*uint64(m.blockBytes), write, true)
	m.lastFree = done
	return done, done
}

// assemble runs one cell from the same public calls sim.Run makes —
// Profile.NewStream with the per-core seeds, core.NewUnbound,
// oram.NewEngine, oram.NewQueue, cpu.RunSources, Engine.Drain — with span
// wrappers at the trace.Source, oram.DupPolicy, cpu.CoreMemory and
// (insecure) cpu.Memory seams. It never wraps oram.Engine: NewQueue finds
// the Path controller by type assertion, and a wrapped engine would
// silently lose the decoupled writeback pump (TestEngineWrapperBreaksWBD).
func assemble(spec sim.Spec, t *tracer) (cellResult, error) {
	srcs := make([]trace.Source, spec.CPU.Cores)
	for i := range srcs {
		s, err := spec.Profile.NewStream(spec.Refs, spec.Seed+uint64(i)*1000003)
		if err != nil {
			return cellResult{}, err
		}
		srcs[i] = tracedSource{s, t}
	}
	if spec.Insecure {
		dm, err := dram.New(spec.ORAM.DRAM)
		if err != nil {
			return cellResult{}, err
		}
		mem := &directMemory{mem: dm, blockBytes: spec.ORAM.BlockBytes}
		t.begin(lCPU)
		res, err := cpu.RunSourcesMemory(spec.CPU, srcs, tracedMemory{mem, t})
		t.end()
		if err != nil {
			return cellResult{}, err
		}
		return cellResult{cycles: res.Cycles, refs: res.References, mem: dm.Stats()}, nil
	}

	t.begin(lNewEngine)
	pol, err := newPolicy(spec)
	var wrapped *tracedPolicy
	var dup oram.DupPolicy // a typed nil must stay an interface nil
	if pol != nil {
		wrapped = &tracedPolicy{p: pol, t: t}
		dup = wrapped
	}
	var eng oram.Engine
	if err == nil {
		eng, err = oram.NewEngine(oram.PathEngine, spec.ORAM, dup)
	}
	t.end()
	if err != nil {
		return cellResult{}, err
	}
	q := oram.NewQueue(eng, spec.CPU.Cores)
	t.begin(lCPU)
	res, err := cpu.RunSources(spec.CPU, srcs, tracedQueue{q, t})
	t.end()
	if err != nil {
		return cellResult{}, err
	}
	cycles := res.Cycles
	if d := eng.Drain(); d > cycles {
		cycles = d
	}
	out := cellResult{
		cycles: cycles, refs: res.References,
		oram: eng.Stats(), queue: q.Stats(), mem: eng.MemStats(),
	}
	if wrapped != nil {
		out.shadows = wrapped.shadows
	}
	if c, ok := eng.(*oram.Controller); ok {
		out.stashMaxReal = c.StashMaxReal()
	}
	return out, nil
}

// budgetLoop runs rep until the time budget is spent (never starting a
// repetition that would overrun it by the median so far), at least min
// times.
func budgetLoop(budget time.Duration, min int, rep func() (time.Duration, error)) error {
	start := time.Now()
	var walls []time.Duration
	for i := 0; ; i++ {
		if i >= min {
			med := time.Duration(durations(walls).median() * float64(time.Second))
			if time.Since(start)+med > budget {
				return nil
			}
		}
		w, err := rep()
		if err != nil {
			return err
		}
		walls = append(walls, w)
	}
}

// simRep is one timed repetition of a sim workload's unit of work.
type simRep struct {
	wall, cpu time.Duration
	refs      uint64
}

// timeRep collects garbage first, untimed, so no repetition pays for the
// previous one's, then times fn, which returns the references it
// simulated.
func timeRep(fn func() (uint64, error)) (simRep, error) {
	runtime.GC()
	c0 := selfCPU()
	t0 := time.Now()
	refs, err := fn()
	return simRep{wall: time.Since(t0), cpu: selfCPU() - c0, refs: refs}, err
}

// simTimes accumulates the repetitions of one unit of work.
type simTimes struct{ walls, rates, cpuPerRef samples }

func (s *simTimes) add(r simRep) {
	s.walls = append(s.walls, r.wall.Seconds())
	s.rates = append(s.rates, float64(r.refs)/r.wall.Seconds())
	s.cpuPerRef = append(s.cpuPerRef, float64(r.cpu.Nanoseconds())/1e3/float64(r.refs))
}

// simEndToEnd fills the end-to-end metrics of a sim workload: each timing
// is the median over a unit's repetitions, averaged over the units.
func simEndToEnd(o *outcome, setup samples, units []simTimes, cycles int64) error {
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	mean := func(f func(simTimes) samples) float64 {
		var sum float64
		for _, u := range units {
			sum += f(u).median()
		}
		return sum / float64(len(units))
	}
	o.set("setup_s", setup.median(), "s")
	o.set("wall_s", mean(func(u simTimes) samples { return u.walls }), "s")
	o.set("sim_refs_per_s", mean(func(u simTimes) samples { return u.rates }), "refs/s")
	o.set("cpu_us_per_ref", mean(func(u simTimes) samples { return u.cpuPerRef }), "us")
	o.set("peak_rss_mb", rss, "MB")
	o.set("sim_cycles", float64(cycles), "cycles")
	fmt.Printf("setup_s %s\n", setup.describe(1, "s"))
	for i, u := range units {
		fmt.Printf("unit %d wall_s %s\n", i, u.walls.describe(1, "s"))
	}
	return nil
}

// fig11Figures derives the headline ratios from cycles in [workload]
// [scheme] order over fig11Schemes: the gmean over workloads of tiny ÷
// dynamic-3 cycles (the shadow-block speedup) and of dynamic-3 ÷ insecure
// (Fig. 11's dynamic-3 slowdown).
func fig11Figures(cycles []int64) (speedup, slowdown float64) {
	n := len(fig11Schemes)
	var sp, sl []float64
	for w := 0; w+n <= len(cycles); w += n {
		row := cycles[w : w+n]
		sp = append(sp, float64(row[1])/float64(row[3]))
		sl = append(sl, float64(row[3])/float64(row[0]))
	}
	return stats.Gmean(sp), stats.Gmean(sl)
}

func printFig11(speedup, slowdown float64) {
	fmt.Printf("shadow_speedup %.6f (tiny/dynamic-3 gmean: %+.2f%%; the paper reports 15-32%%)\n",
		speedup, (speedup-1)*100)
	fmt.Printf("dyn3_slowdown %.6f (dynamic-3 vs insecure gmean)\n", slowdown)
}

// sweepSpecs lists the sweep's cells in [workload][scheme] order.
func sweepSpecs(r experiments.Runner, schemes []experiments.Scheme) ([]sim.Spec, []string) {
	var specs []sim.Spec
	var names []string
	for _, p := range r.Workloads {
		for _, s := range schemes {
			specs = append(specs, cellSpec(r, p, cpu.InOrder(), s))
			names = append(names, p.Name+" "+s.Name)
		}
	}
	return specs, names
}

// runSweep is sweep-fig11: the Fig. 11 matrix (experiments.Fig11's own
// RunMatrix call over its four schemes, TestSweepMatchesFig11) at quick
// scale over GOMAXPROCS workers.
func runSweep(o options) (outcome, error) {
	r := sweepRunner(o.seed)
	schemes, err := parseSchemes(fig11Schemes)
	if err != nil {
		return outcome{}, err
	}
	specs, names := sweepSpecs(r, schemes)
	if o.traced {
		out, v, cycles, err := traceCells(o, specs, names)
		if err != nil {
			return out, err
		}
		v["exp.shadow_speedup"], v["exp.dyn3_slowdown"] = fig11Figures(cycles)
		printFig11(v["exp.shadow_speedup"], v["exp.dyn3_slowdown"])
		setPerLayer(&out, v)
		return out, nil
	}
	var out outcome
	setup, err := setupTimes(specs[len(schemes)-1], setupBuilds)
	if err != nil {
		return out, err
	}
	var (
		times simTimes
		first []int64
	)
	err = budgetLoop(time.Duration(o.seconds*float64(time.Second)), 2, func() (time.Duration, error) {
		var m [][]sim.Metrics
		rep, err := timeRep(func() (uint64, error) {
			var err error
			m, err = r.RunMatrix(cpu.InOrder(), schemes)
			var refs uint64
			for _, row := range m {
				for _, cell := range row {
					refs += cell.CPU.References
				}
			}
			return refs, err
		})
		if err != nil {
			return 0, err
		}
		var cycles []int64
		for _, row := range m {
			for _, cell := range row {
				i := len(cycles)
				out.attempted++
				cycles = append(cycles, cell.Cycles)
				if cell.ORAM.Anomalies != 0 {
					out.failf("%s: %d anomalies", names[i], cell.ORAM.Anomalies)
				}
				if first != nil && first[i] != cell.Cycles {
					out.failf("%s: cycles %d, first repetition %d", names[i], cell.Cycles, first[i])
				}
			}
		}
		if first == nil {
			first = cycles
		}
		times.add(rep)
		return rep.wall, nil
	})
	if err != nil {
		return out, err
	}
	var total int64
	for _, c := range first {
		total += c
	}
	fmt.Printf("sweep-fig11: %d workloads x %d schemes, %d repetitions, %d workers\n",
		len(r.Workloads), len(schemes), len(times.walls), runtime.GOMAXPROCS(0))
	printFig11(fig11Figures(first))
	return out, simEndToEnd(&out, setup, []simTimes{times}, total)
}

// runQuad is sim-quad: the quad cell through sim.Run, rotating over its
// derived seeds.
func runQuad(o options) (outcome, error) {
	specs, err := quadSpecs(o.seed)
	if err != nil {
		return outcome{}, err
	}
	names := make([]string, len(specs))
	for k, s := range specs {
		names[k] = fmt.Sprintf("%s %s trace seed %d", quadBench, quadScheme, s.Seed)
	}
	if o.traced {
		out, v, _, err := traceCells(o, specs, names)
		if err == nil {
			setPerLayer(&out, v)
		}
		return out, err
	}
	var out outcome
	setup, err := setupTimes(specs[0], setupBuilds)
	if err != nil {
		return out, err
	}
	units := make([]simTimes, len(specs))
	first := make([]*cellResult, len(specs))
	reps := 0
	err = budgetLoop(time.Duration(o.seconds*float64(time.Second)), 2*len(specs), func() (time.Duration, error) {
		k := reps % len(specs)
		reps++
		var cr cellResult
		rep, err := timeRep(func() (uint64, error) {
			m, err := sim.Run(specs[k])
			cr = fromMetrics(m)
			return cr.refs, err
		})
		if err != nil {
			return 0, err
		}
		out.attempted++
		if cr.oram.Anomalies != 0 {
			out.failf("%s: %d anomalies", names[k], cr.oram.Anomalies)
		}
		if first[k] == nil {
			first[k] = &cr
		} else if cr.cycles != first[k].cycles || cr.oram != first[k].oram {
			out.failf("%s: cycles %d, first repetition %d", names[k], cr.cycles, first[k].cycles)
		}
		units[k].add(rep)
		return rep.wall, nil
	})
	if err != nil {
		return out, err
	}
	var total int64
	for _, f := range first {
		total += f.cycles
	}
	fmt.Printf("sim-quad: %s %s O3 %d refs/core over %d trace seeds, %d repetitions\n",
		quadBench, quadScheme, quadRefs, len(specs), reps)
	return out, simEndToEnd(&out, setup, units, total)
}

// traceCells is the traced run of a sim workload. Every cell runs
// serially three ways: plain sim.Run (the untraced reference, timed), the
// traced assembly (spans), and sim.Run with a ledger collector attached
// (the cycle ledger). All three must produce the same cycles. It returns
// the per-layer figures and each cell's cycles.
func traceCells(o options, specs []sim.Spec, names []string) (outcome, map[string]float64, []int64, error) {
	var (
		out                   outcome
		t                     = newTracer()
		plainWall, tracedWall time.Duration
		cellWalls             samples
		sum                   cellResult
		cycles                []int64
		ledger                = map[string]float64{}
	)
	for i, spec := range specs {
		out.attempted++
		t0 := time.Now()
		m, err := sim.Run(spec)
		d := time.Since(t0)
		if err != nil {
			return out, nil, nil, err
		}
		plainWall += d
		cellWalls = append(cellWalls, d.Seconds())

		t0 = time.Now()
		tr, err := assemble(spec, t)
		tracedWall += time.Since(t0)
		if err != nil {
			return out, nil, nil, err
		}

		spec.Metrics = metrics.New(metrics.Options{Ledger: true})
		obs, err := sim.Run(spec)
		if err != nil {
			return out, nil, nil, err
		}

		cycles = append(cycles, m.Cycles)
		switch {
		case tr.cycles != m.Cycles:
			out.failf("%s: traced cycles %d, untraced %d", names[i], tr.cycles, m.Cycles)
		case obs.Cycles != m.Cycles:
			out.failf("%s: observed cycles %d, untraced %d", names[i], obs.Cycles, m.Cycles)
		case m.ORAM.Anomalies != 0:
			out.failf("%s: %d anomalies", names[i], m.ORAM.Anomalies)
		}
		sum.add(fromMetrics(m))
		sum.shadows += tr.shadows
		if tr.stashMaxReal > sum.stashMaxReal {
			sum.stashMaxReal = tr.stashMaxReal
		}
		if obs.Obs != nil && obs.Obs.Ledger != nil {
			addLedger(ledger, obs.Obs.Ledger)
			if v := obs.Obs.Ledger.Violations; v != 0 {
				out.failf("%s: %d ledger violations", names[i], v)
			}
		}
	}

	v := map[string]float64{
		"oram.new_engine_s":      t.total(lNewEngine),
		"core.select_dup_s":      t.total(lSelectDup),
		"core.note_evict_s":      t.total(lNoteEvict),
		"core.other_s":           t.total(lCoreOther),
		"oram.issue_s":           t.total(lIssue),
		"oram.self_s":            t.self(lIssue),
		"trace.next_s":           t.total(lTraceNext),
		"cpu.self_s":             t.self(lCPU),
		"experiments.cell_s_p50": cellWalls.median(),
		"experiments.cell_s_max": cellWalls.pct(100),
		"trace.overhead_s":       (tracedWall - plainWall).Seconds(),
		"trace.overhead_frac":    (tracedWall - plainWall).Seconds() / plainWall.Seconds(),
	}
	if n := t.aggs[lIssue].count; n > 0 {
		v["oram.issue_ns_per_req"] = float64(t.aggs[lIssue].total.Nanoseconds()) / float64(n)
	}
	sum.counts(v)
	for k, x := range ledger {
		v[k] = x
	}
	fmt.Printf("traced %d cells serially: untraced %.3fs, traced %.3fs; cell wall %s\n",
		len(cellWalls), plainWall.Seconds(), tracedWall.Seconds(), cellWalls.describe(1, "s"))
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	return out, v, cycles, t.write(path, hostLabel(o))
}

// addLedger folds one run's cycle ledger into the per-layer figures.
func addLedger(v map[string]float64, lr *metrics.LedgerReport) {
	for _, st := range []string{"posmap_walk", "path_read", "evict_drain", "queue_wait", "coalesce"} {
		v["ledger."+st] += float64(lr.Stage(st).Cycles)
	}
	v["ledger.stash_update"] += float64(lr.Stage("stash_update").Count)
	v["ledger.violations"] += float64(lr.Violations)
}

// add folds one cell's counters into a sweep total.
func (c *cellResult) add(o cellResult) {
	c.cycles += o.cycles
	c.refs += o.refs
	s, x := &c.oram, o.oram
	s.Requests += x.Requests
	s.StashHits += x.StashHits
	s.ShadowStashHits += x.ShadowStashHits
	s.OnChipHits += x.OnChipHits
	s.ORAMAccesses += x.ORAMAccesses
	s.PMAccesses += x.PMAccesses
	s.EvictionPhases += x.EvictionPhases
	s.ShadowForwards += x.ShadowForwards
	s.StashOverflows += x.StashOverflows
	s.Anomalies += x.Anomalies
	s.WBEnqueued += x.WBEnqueued
	s.WBSlotted += x.WBSlotted
	s.WBForced += x.WBForced
	c.queue.Issued += o.queue.Issued
	c.queue.OnChip += o.queue.OnChip
	c.queue.Coalesced += o.queue.Coalesced
	if o.queue.MaxDepth > c.queue.MaxDepth {
		c.queue.MaxDepth = o.queue.MaxDepth
	}
	c.mem.Reads += o.mem.Reads
	c.mem.Writes += o.mem.Writes
	c.mem.Activates += o.mem.Activates
	c.mem.RowHits += o.mem.RowHits
	c.mem.RowMisses += o.mem.RowMisses
}

// counts fills the exact per-layer counters: identical on every run of
// the same seed, and unchanged by any host-only change.
func (c cellResult) counts(v map[string]float64) {
	s := c.oram
	v["oram.requests"] = float64(s.Requests)
	v["oram.accesses"] = float64(s.ORAMAccesses)
	v["oram.pm_accesses"] = float64(s.PMAccesses)
	v["oram.evictions"] = float64(s.EvictionPhases)
	v["oram.onchip_hit_rate"] = ratio(s.OnChipHits, s.Requests)
	v["oram.shadow_forward_rate"] = ratio(s.ShadowForwards, s.Requests)
	v["oram.stash_overflows"] = float64(s.StashOverflows)
	v["oram.anomalies"] = float64(s.Anomalies)
	v["oram.wb_slotted_frac"] = ratio(s.WBSlotted, s.WBEnqueued)
	v["oram.wb_forced"] = float64(s.WBForced)
	v["core.shadows_created"] = float64(c.shadows)
	v["core.shadow_yield"] = ratio(s.ShadowForwards+s.ShadowStashHits, uint64(c.shadows))
	v["stash.max_real"] = float64(c.stashMaxReal)
	q := c.queue
	v["queue.issued"] = float64(q.Issued)
	v["queue.coalesced"] = float64(q.Coalesced)
	v["queue.coalesce_rate"] = ratio(q.Coalesced, q.Issued+q.OnChip+q.Coalesced)
	v["queue.max_depth"] = float64(q.MaxDepth)
	v["dram.reads"] = float64(c.mem.Reads)
	v["dram.writes"] = float64(c.mem.Writes)
	v["dram.activates"] = float64(c.mem.Activates)
	v["dram.row_hit_rate"] = ratio(c.mem.RowHits, c.mem.RowHits+c.mem.RowMisses)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// finite replaces NaN and infinities (empty sample sets) with 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
