package main

import (
	"os/exec"
	"path/filepath"
	"testing"

	"shadowblock/internal/metrics"
)

// buildShadowd compiles cmd/shadowd into a temporary directory.
func buildShadowd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "shadowd")
	cmd := exec.Command("go", "build", "-o", bin, "shadowblock/cmd/shadowd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building shadowd: %v\n%s", err, out)
	}
	return bin
}

// TestKVBackToBackRuns runs two kv sessions one after the other. Each
// starts its own fresh shadowd, so neither sees the other's keys and both
// must finish without a single failed op (a reused server answered 200 for
// keys this run never wrote).
func TestKVBackToBackRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts shadowd processes")
	}
	bin := buildShadowd(t)
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		run, err := kvSession(bin, dir, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if run.fails.count != 0 {
			t.Fatalf("run %d: %d of %d ops failed: %v", i, run.fails.count, run.attempted, run.fails.first)
		}
		if len(run.setup) != kvStarts || len(run.passWalls) < 3 || len(run.open) == 0 {
			t.Fatalf("run %d: %d starts, %d passes, %d open-loop samples", i, len(run.setup), len(run.passWalls), len(run.open))
		}
	}
}

// TestReplayIsDeterministic replays one op sequence plain, traced and
// with the ledger: the simulated cycles must agree, since the seeded op
// sequence and not the wall clock decides them.
func TestReplayIsDeterministic(t *testing.T) {
	var ops []kvOp
	for c := 0; c < kvConns; c++ {
		g := newOpGen(9, c)
		ops = append(ops, g.warm()...)
		for i := 0; i < 500; i++ {
			ops = append(ops, g.next())
		}
	}
	plain, err := replay(ops, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := replay(ops, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := replay(ops, nil, metrics.New(metrics.Options{Ledger: true}))
	if err != nil {
		t.Fatal(err)
	}
	if traced.cycles != plain.cycles || observed.cycles != plain.cycles {
		t.Fatalf("cycles: plain %d, traced %d, observed %d", plain.cycles, traced.cycles, observed.cycles)
	}
	if observed.ledger == nil || observed.ledger.Violations != 0 {
		t.Fatal("missing ledger or ledger violations")
	}
	be := traced.backend
	if be.writes == 0 || be.seals == 0 || be.reads <= be.writes {
		t.Fatalf("backend traffic: %d reads, %d writes, %d seals", be.reads, be.writes, be.seals)
	}
}

// TestOpGenChecksReadYourWrites feeds a generated sequence into a map
// standing in for the server: every check must pass, and a stale value
// must fail.
func TestOpGenChecksReadYourWrites(t *testing.T) {
	g := newOpGen(1, 1)
	state := map[string][]byte{}
	serve := func(op kvOp) (int, []byte) {
		v, ok := state[op.key]
		switch op.kind {
		case opGet:
			if !ok {
				return 404, nil
			}
			return 200, v
		case opPut:
			state[op.key] = op.value
			return 204, nil
		default:
			delete(state, op.key)
			if !ok {
				return 404, nil
			}
			return 204, nil
		}
	}
	ops := g.warm()
	for i := 0; i < 5000; i++ {
		ops = append(ops, g.next())
	}
	kinds := map[opKind]int{}
	for _, op := range ops {
		kinds[op.kind]++
		if err := op.check(serve(op)); err != nil {
			t.Fatal(err)
		}
	}
	if kinds[opGet] == 0 || kinds[opPut] == 0 || kinds[opDelete] == 0 {
		t.Fatalf("op mix %v lacks a kind", kinds)
	}
	stale := kvOp{kind: opGet, key: "k", want: []byte("new"), found: true}
	if stale.check(200, []byte("old")) == nil {
		t.Fatal("a stale read passed the check")
	}
}
