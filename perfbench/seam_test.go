package main

import (
	"testing"

	"shadowblock/internal/cpu"
	"shadowblock/internal/experiments"
	"shadowblock/internal/oram"
	"shadowblock/internal/sim"
	"shadowblock/internal/trace"
)

// testRefs shrinks the cells: seam fidelity does not depend on run length.
const testRefs = 2500

func smallSweep() (experiments.Runner, []experiments.Scheme, error) {
	r := sweepRunner(3)
	r.Refs = testRefs
	s, err := parseSchemes(fig11Schemes)
	return r, s, err
}

func smallQuad() (sim.Spec, error) {
	specs, err := quadSpecs(3)
	if err != nil {
		return sim.Spec{}, err
	}
	specs[0].Refs = testRefs
	return specs[0], nil
}

// TestCellSpecMatchesRunner pins cellSpec to the spec experiments.Runner
// builds: both must simulate the same cycles.
func TestCellSpecMatchesRunner(t *testing.T) {
	r, schemes, err := smallSweep()
	if err != nil {
		t.Fatal(err)
	}
	p := r.Workloads[0]
	for _, s := range schemes {
		want, err := r.Run(p, cpu.InOrder(), s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run(cellSpec(r, p, cpu.InOrder(), s))
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.ORAM != want.ORAM {
			t.Errorf("%s: cellSpec cycles %d, Runner.Run %d", s.Name, got.Cycles, want.Cycles)
		}
	}
}

// TestSweepMatchesFig11 shows the timed phase of sweep-fig11 is Fig11's
// own work: RunMatrix over fig11Schemes yields exactly Fig11's slowdowns.
func TestSweepMatchesFig11(t *testing.T) {
	r, schemes, err := smallSweep()
	if err != nil {
		t.Fatal(err)
	}
	r.Workloads = r.Workloads[:3]
	fig, err := experiments.Fig11(r)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.RunMatrix(cpu.InOrder(), schemes)
	if err != nil {
		t.Fatal(err)
	}
	for w := range m {
		base := float64(m[w][0].Cycles)
		for s := 1; s < len(schemes); s++ {
			if got, want := float64(m[w][s].Cycles)/base, fig.Slowdowns[w][s-1]; got != want {
				t.Errorf("%s %s: slowdown %v, Fig11 %v", r.Workloads[w].Name, schemes[s].Name, got, want)
			}
		}
	}
}

// TestAssembleReproducesSimRun is the seam-fidelity check: for every cell
// of both sim workloads, the traced assembly must reproduce sim.Run's
// cycles and counters bit for bit.
func TestAssembleReproducesSimRun(t *testing.T) {
	r, schemes, err := smallSweep()
	if err != nil {
		t.Fatal(err)
	}
	specs, _ := sweepSpecs(r, schemes)
	quad, err := smallQuad()
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, quad)
	tr := newTracer()
	for _, spec := range specs {
		want, err := sim.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := assemble(spec, tr)
		if err != nil {
			t.Fatal(err)
		}
		w := fromMetrics(want)
		if got.cycles != w.cycles || got.refs != w.refs || got.oram != w.oram || got.queue != w.queue || got.mem != w.mem {
			t.Errorf("%s cores=%d insecure=%t: assembled cycles %d, sim.Run %d",
				spec.Profile.Name, spec.CPU.Cores, spec.Insecure, got.cycles, w.cycles)
		}
	}
	if tr.aggs[lIssue].count == 0 || tr.aggs[lSelectDup].count == 0 || tr.aggs[lTraceNext].count == 0 {
		t.Error("traced assembly recorded no spans")
	}
}

// wrappedEngine forwards every oram.Engine method; wrapping hides the
// concrete *oram.Controller from oram.NewQueue.
type wrappedEngine struct{ oram.Engine }

// TestEngineWrapperBreaksWBD documents why the benchmark never wraps
// oram.Engine: NewQueue finds the Path controller by type assertion, so a
// wrapper silently drops the queue's writeback pump (and the functional
// path). On an in-order -wbd cell, such as the committed baseline cell
// mcf dynamic-3-pipe-c4-wbd, the cycles change. On sim-quad's saturated
// 4-core front end the pump finds no idle gap, so there the wrapper
// happens to leave the cycles alone: the breakage would go unnoticed.
func TestEngineWrapperBreaksWBD(t *testing.T) {
	p, _ := trace.ByName("mcf")
	s, err := experiments.ParseScheme("dynamic-3-pipe-c4-wbd")
	if err != nil {
		t.Fatal(err)
	}
	spec := cellSpec(experiments.Runner{Refs: 6000, Seed: 7}, p, cpu.InOrder(), s)
	want, err := sim.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := newPolicy(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := oram.NewEngine(oram.PathEngine, spec.ORAM, pol)
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.Profile.NewStream(spec.Refs, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	q := oram.NewQueue(wrappedEngine{eng}, 1)
	if q.Controller() != nil {
		t.Fatal("the wrapper should hide the Path controller from the queue")
	}
	res, err := cpu.RunSources(spec.CPU, []trace.Source{src}, q)
	if err != nil {
		t.Fatal(err)
	}
	cycles := res.Cycles
	if d := eng.Drain(); d > cycles {
		cycles = d
	}
	if cycles == want.Cycles {
		t.Fatalf("wrapped engine reproduced sim.Run's %d cycles; the -wbd pitfall no longer holds", cycles)
	}
	t.Logf("-wbd cycles: sim.Run %d, behind an engine wrapper %d", want.Cycles, cycles)
}
