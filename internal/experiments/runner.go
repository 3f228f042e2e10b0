// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). Each FigNN function runs the workload × scheme matrix
// that figure plots and returns the same rows/series; Render produces a
// text table, CSV a machine-readable form. DESIGN.md §4 is the index.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/sim"
	"shadowblock/internal/trace"
)

// Runner fixes the scale of every experiment.
type Runner struct {
	Refs int // memory references per core per run
	Seed uint64
	// Workloads is the benchmark list (default: the ten SPEC profiles).
	Workloads []trace.Profile
}

// Default returns the publication-scale runner.
func Default() Runner {
	return Runner{Refs: 60000, Seed: 7, Workloads: trace.SPEC2006()}
}

// Quick returns a fast runner for tests and smoke runs. The shapes are
// noisier at this scale but the orderings hold.
func Quick() Runner {
	return Runner{Refs: 12000, Seed: 7, Workloads: trace.SPEC2006()}
}

// Scheme names a memory-system configuration under evaluation.
type Scheme struct {
	Name     string
	Engine   string // registered ORAM engine; "" = "path", the implied default
	Insecure bool
	TP       bool // timing protection at the Table I static rate
	Policy   *core.Config
	Treetop  int
	XOR      bool
	Pipeline bool // pipelined request engine (writeback/read overlap)
	Channels int  // multi-channel memory system; 0 = legacy layout
	Cores    int  // issuing cores sharing the front end; 0 = the CPU config's default

	// WBDecoupled selects the decoupled per-bucket writeback scheduler
	// (the "-wbd" scheme suffix): eviction writes queue per bucket and
	// drain into idle bank windows with read-priority arbitration.
	WBDecoupled bool
}

// The named schemes of the evaluation.
func schemeInsecure() Scheme { return Scheme{Name: "insecure", Insecure: true} }
func schemeTiny(tp bool) Scheme {
	return Scheme{Name: "tiny", TP: tp}
}
func schemePolicy(name string, tp bool, cfg core.Config) Scheme {
	c := cfg
	return Scheme{Name: name, TP: tp, Policy: &c}
}

// ParseScheme maps a scheme name — the cmd/shadowsim vocabulary: insecure,
// tiny, rd, hd, static-N, dynamic-N — to its Scheme. Any ORAM scheme name
// may carry a "-pipe" suffix (tiny-pipe, dynamic-3-pipe, ...) selecting
// the pipelined request engine, and/or a "-cN" suffix (tiny-c4,
// dynamic-3-pipe-c2, ...) selecting the N-channel memory system with the
// channel-interleaved layout, and/or a "-wbd" suffix (tiny-wbd,
// dynamic-3-pipe-c4-wbd, ...) selecting the decoupled per-bucket
// writeback scheduler; the insecure baseline has no ORAM engine to
// pipeline, interleave or decouple, so those suffixes are rejected on it.
// Any scheme — the insecure baseline included, since cores are a
// processor property — may carry an outermost "-coreN" suffix
// (dynamic-3-pipe-c4-core4, ...) setting how many cores issue into the
// shared memory system. The canonical suffix order is
// base[-pipe][-cN][-wbd][-coreN].
//
// An "engine:" prefix (ring:tiny, ring:dynamic-3-core2, path:dynamic-3,
// ...) selects which registered ORAM engine serves the scheme; without
// one, "path" — the Tiny ORAM controller — is implied, so every pre-seam
// scheme string parses to the configuration it always did. Unknown
// engines are rejected with the registry's known-engine list, and a
// suffix requesting an axis outside the engine's capabilities (e.g.
// ring:tiny-pipe) is rejected here, at parse time, rather than
// mid-construction. The insecure baseline bypasses ORAM and takes no
// engine prefix.
func ParseScheme(name string) (Scheme, error) {
	if engine, rest, ok := strings.Cut(name, ":"); ok {
		if engine == "" || rest == "" {
			return Scheme{}, fmt.Errorf("experiments: scheme %q: want engine:scheme", name)
		}
		if strings.Contains(rest, ":") {
			return Scheme{}, fmt.Errorf("experiments: scheme %q: more than one engine prefix", name)
		}
		info, known := oram.LookupEngine(engine)
		if !known {
			return Scheme{}, fmt.Errorf("experiments: scheme %q: unknown engine %q (known engines: %s)",
				name, engine, strings.Join(oram.Engines(), ", "))
		}
		s, err := ParseScheme(rest)
		if err != nil {
			return Scheme{}, err
		}
		if s.Insecure {
			return Scheme{}, fmt.Errorf("experiments: scheme %q: the insecure baseline bypasses ORAM and takes no engine", name)
		}
		if err := info.Caps.Check(engine, s.oramConfig()); err != nil {
			return Scheme{}, fmt.Errorf("experiments: scheme %q: %w", name, err)
		}
		s.Name = name
		s.Engine = engine
		return s, nil
	}
	if i := strings.LastIndex(name, "-core"); i > 0 {
		if n, err := strconv.Atoi(name[i+5:]); err == nil {
			if n < 1 {
				return Scheme{}, fmt.Errorf("experiments: scheme %q: core count must be >= 1", name)
			}
			s, err := ParseScheme(name[:i])
			if err != nil {
				return Scheme{}, err
			}
			s.Name = name
			s.Cores = n
			return s, nil
		}
	}
	if base, ok := strings.CutSuffix(name, "-wbd"); ok {
		if base == "insecure" {
			return Scheme{}, fmt.Errorf("experiments: scheme %q: the insecure baseline has no writeback path to decouple", name)
		}
		s, err := ParseScheme(base)
		if err != nil {
			return Scheme{}, err
		}
		s.Name = name
		s.WBDecoupled = true
		return s, nil
	}
	if i := strings.LastIndex(name, "-c"); i > 0 {
		if n, err := strconv.Atoi(name[i+2:]); err == nil {
			if n < 1 {
				return Scheme{}, fmt.Errorf("experiments: scheme %q: channel count must be >= 1", name)
			}
			base := name[:i]
			if base == "insecure" {
				return Scheme{}, fmt.Errorf("experiments: scheme %q: the insecure baseline has no ORAM layout to interleave", name)
			}
			s, err := ParseScheme(base)
			if err != nil {
				return Scheme{}, err
			}
			s.Name = name
			s.Channels = n
			return s, nil
		}
	}
	if base, ok := strings.CutSuffix(name, "-pipe"); ok {
		if base == "insecure" {
			return Scheme{}, fmt.Errorf("experiments: scheme %q: the insecure baseline has no ORAM engine to pipeline", name)
		}
		s, err := ParseScheme(base)
		if err != nil {
			return Scheme{}, err
		}
		s.Name = name
		s.Pipeline = true
		return s, nil
	}
	switch {
	case name == "insecure":
		return schemeInsecure(), nil
	case name == "tiny":
		return schemeTiny(false), nil
	case name == "rd":
		return schemePolicy("rd", false, core.RDOnly()), nil
	case name == "hd":
		return schemePolicy("hd", false, core.HDOnly()), nil
	case strings.HasPrefix(name, "static-"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "static-"))
		if err != nil {
			return Scheme{}, fmt.Errorf("experiments: bad scheme %q: %w", name, err)
		}
		return schemePolicy(name, false, core.Static(n)), nil
	case strings.HasPrefix(name, "dynamic-"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "dynamic-"))
		if err != nil {
			return Scheme{}, fmt.Errorf("experiments: bad scheme %q: %w", name, err)
		}
		return schemePolicy(name, false, core.Dynamic(n)), nil
	default:
		return Scheme{}, fmt.Errorf("experiments: unknown scheme %q", name)
	}
}

// oramConfig maps the scheme's ORAM axes onto the default controller
// configuration.
func (s Scheme) oramConfig() oram.Config {
	ocfg := oram.Default()
	ocfg.TimingProtection = s.TP
	ocfg.TreetopLevels = s.Treetop
	ocfg.XOR = s.XOR
	ocfg.Pipeline = s.Pipeline
	ocfg.Channels = s.Channels
	ocfg.WBDecoupled = s.WBDecoupled
	return ocfg
}

// Spec assembles the sim.Spec of one (workload, scheme) cell: the one
// path from a parsed scheme to a runnable configuration.
func (r Runner) Spec(p trace.Profile, cpuCfg cpu.Config, s Scheme) sim.Spec {
	if s.Cores > 0 {
		cpuCfg.Cores = s.Cores
	}
	return sim.Spec{
		Profile:  p,
		CPU:      cpuCfg,
		Refs:     r.Refs,
		Seed:     r.Seed,
		Insecure: s.Insecure,
		Engine:   s.Engine,
		ORAM:     s.oramConfig(),
		Policy:   s.Policy,
	}
}

// Run executes one (workload, scheme) cell.
func (r Runner) Run(p trace.Profile, cpuCfg cpu.Config, s Scheme) (sim.Metrics, error) {
	return sim.Run(r.Spec(p, cpuCfg, s))
}

// Observe executes one cell with the observability collector attached:
// the returned metrics carry the latency digest and Obs report, and col's
// trace recorder (when tracing) holds the request lifecycles.
func (r Runner) Observe(p trace.Profile, cpuCfg cpu.Config, s Scheme, col *metrics.Collector) (sim.Metrics, error) {
	spec := r.Spec(p, cpuCfg, s)
	spec.Metrics = col
	m, err := sim.Run(spec)
	if err == nil && m.Obs != nil {
		m.Obs.Labels["scheme"] = s.Name
	}
	return m, err
}

// parallelism is the sweep worker-count override set by SetParallelism;
// 0 means "use GOMAXPROCS(0)".
var parallelism int

// SetParallelism caps the number of worker goroutines RunMatrix and parMap
// use (paperbench's -par flag). n <= 0 restores the default, GOMAXPROCS(0).
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism = n
}

// sweepWorkers returns the worker count for a sweep of n units: the
// SetParallelism override when set, else GOMAXPROCS(0) — not NumCPU, so
// -cpu-restricted test runs and quota-limited CI containers don't
// oversubscribe — and never more workers than units.
func sweepWorkers(n int) int {
	w := parallelism
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// cell identifies one unit of work in a parallel sweep.
type cell struct {
	wl     int
	scheme int
}

// costWeight estimates a scheme's relative simulation cost per workload
// reference — only the ordering matters, it never affects results. ORAM
// cells dominate insecure ones by an order of magnitude (every LLC miss
// becomes a multi-level posmap walk plus a path read), timing protection
// adds a dummy stream, and each extra issuing core multiplies the
// reference count.
func (s Scheme) costWeight(defaultCores int) int {
	cores := defaultCores
	if s.Cores > 0 {
		cores = s.Cores
	}
	w := cores
	if !s.Insecure {
		w *= 10
		if s.TP {
			w += w / 2
		}
	}
	return w
}

// RunMatrix evaluates every workload × scheme cell in parallel and returns
// metrics indexed as [workload][scheme]. Cells are fed to the workers
// longest-first (by estimated cost, original order on ties): a sweep's
// tail is bounded by its slowest single cell, so the expensive
// full-geometry multi-core cells must start first rather than serialise
// behind the barrier after the cheap ones finish.
func (r Runner) RunMatrix(cpuCfg cpu.Config, schemes []Scheme) ([][]sim.Metrics, error) {
	out := make([][]sim.Metrics, len(r.Workloads))
	for i := range out {
		out[i] = make([]sim.Metrics, len(schemes))
	}
	var cells []cell
	for w := range r.Workloads {
		for s := range schemes {
			cells = append(cells, cell{w, s})
		}
	}
	sort.SliceStable(cells, func(i, j int) bool {
		return schemes[cells[i].scheme].costWeight(cpuCfg.Cores) >
			schemes[cells[j].scheme].costWeight(cpuCfg.Cores)
	})
	var (
		mu      sync.Mutex
		firstEr error
		wg      sync.WaitGroup
	)
	work := make(chan cell)
	workers := sweepWorkers(len(cells))
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				m, err := r.Run(r.Workloads[c.wl], cpuCfg, schemes[c.scheme])
				mu.Lock()
				if err != nil && firstEr == nil {
					firstEr = err
				}
				out[c.wl][c.scheme] = m
				mu.Unlock()
			}
		}()
	}
	// Fail fast: once any cell errors, stop feeding the remaining cells —
	// a sweep with hundreds of cells should not grind on after the first
	// failure. In-flight cells finish; their results are kept.
	for _, c := range cells {
		mu.Lock()
		failed := firstEr != nil
		mu.Unlock()
		if failed {
			break
		}
		work <- c
	}
	close(work)
	wg.Wait()
	return out, firstEr
}

// parMap runs fn(0..n-1) across the sweep worker pool and returns the
// first error.
func parMap(n int, fn func(i int) error) error {
	var (
		mu      sync.Mutex
		firstEr error
		wg      sync.WaitGroup
	)
	work := make(chan int)
	workers := sweepWorkers(n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	// Fail fast: stop feeding indices once any call has errored.
	for i := 0; i < n; i++ {
		mu.Lock()
		failed := firstEr != nil
		mu.Unlock()
		if failed {
			break
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return firstEr
}

// names extracts the workload names.
func (r Runner) names() []string {
	out := make([]string, len(r.Workloads))
	for i, p := range r.Workloads {
		out[i] = p.Name
	}
	return out
}
