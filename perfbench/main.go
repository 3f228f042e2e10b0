// Command perfbench is the repository benchmark: it measures the host cost
// of the simulator and of the shadowd key-value service, end to end with
// tracing off and layer by layer in a separate traced run.
//
//	bash perfbench/run.sh --workload sim-quad --seed 1 --seconds 20 --trace 0
//
// Workloads: sweep-fig11 (the Fig. 11 matrix at quick scale), sim-quad (one
// long 4-core cell) and kv-mixed (a fresh shadowd under open- and
// closed-loop HTTP load). Human-readable lines come first on standard
// output; the last line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
// when every correctness check passed. README.md documents the metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back to main: the figures for the
// requested mode plus the ops attempted and the checks that failed.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string // the first maxFailures messages
}

const maxFailures = 20

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) failf(format string, args ...any) {
	o.failed++
	if len(o.failures) < maxFailures {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	shadowd  string // path of the shadowd binary (kv-mixed)
	outDir   string // scratch directory for span logs and server address files
}

func main() {
	var (
		o     options
		trace int
		secs  int
	)
	flag.StringVar(&o.workload, "workload", "", "sweep-fig11, sim-quad or kv-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&secs, "seconds", 20, "how long the timed phase measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&o.shadowd, "shadowd", filepath.Join(".bench_build", "shadowd"), "shadowd binary (kv-mixed)")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for span logs and scratch files")
	flag.Parse()
	if secs < 1 || (trace != 0 && trace != 1) {
		fatalf("need --seconds >= 1 and --trace 0 or 1")
	}
	o.seconds = float64(secs)
	o.traced = trace == 1
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	label := hostLabel(o)
	fmt.Println("host:", label)

	var (
		out outcome
		err error
	)
	switch o.workload {
	case "sweep-fig11":
		out, err = runSweep(o)
	case "sim-quad":
		out, err = runQuad(o)
	case "kv-mixed":
		out, err = runKV(o)
	default:
		fatalf("unknown --workload %q (sweep-fig11, sim-quad, kv-mixed)", o.workload)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}

	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Printf("%-36s %18.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range out.failures {
		fmt.Println("FAIL:", f)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	if res.Attempted < 1 {
		fatalf("%s attempted no operations", o.workload)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// fatalf reports a run that could not produce a result: no JSON line, and
// a non-zero exit.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// hostLabel names the machine and settings a result was measured under.
// Host figures compare only between results with the same label.
func hostLabel(o options) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d seconds=%g trace=%t",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		o.workload, o.seed, o.seconds, o.traced)
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" off
// Linux).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
