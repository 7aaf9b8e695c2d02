package topaz

import (
	"fmt"
	"testing"
)

// policyWorkload forks the jittered compute/yield mix the scheduler
// ablations use — enough rescheduling to make the dispatch policy
// matter.
func policyWorkload(k *Kernel) {
	for i := 0; i < 8; i++ {
		k.Fork(LoopProgram(60, func(int) []Action {
			return []Action{Compute{400}, Yield{}}
		}), ThreadSpec{Name: fmt.Sprintf("job%d", i)}, nil)
	}
}

// TestWorkStealingPick pins the stealing decision directly: affine
// first, then the busiest peer's oldest thread, ties to the
// lowest-numbered peer.
func TestWorkStealingPick(t *testing.T) {
	k := newKernel(4, Config{})
	pol := WorkStealing{}
	mk := func(id, last int) *Thread { return &Thread{id: id, lastProc: last} }

	// An affine thread wins even when buried behind foreign ones.
	ready := []*Thread{mk(1, 2), mk(2, 0), mk(3, 1)}
	if got := pol.Pick(k, 0, ready); got != 1 {
		t.Fatalf("Pick with affine thread = %d, want 1", got)
	}
	// A never-run thread counts as affine (free to place).
	ready = []*Thread{mk(1, 2), mk(2, -1)}
	if got := pol.Pick(k, 0, ready); got != 1 {
		t.Fatalf("Pick with fresh thread = %d, want 1", got)
	}
	// All foreign: steal the oldest thread of the deepest backlog
	// (peer 2 has two queued, peer 1 one).
	ready = []*Thread{mk(1, 1), mk(2, 2), mk(3, 2)}
	if got := pol.Pick(k, 0, ready); got != 1 {
		t.Fatalf("Pick stealing from busiest = %d, want 1 (peer 2's oldest)", got)
	}
	// Tie between peers 1 and 2: lowest-numbered peer loses a thread.
	ready = []*Thread{mk(1, 2), mk(2, 1)}
	if got := pol.Pick(k, 0, ready); got != 1 {
		t.Fatalf("Pick on tied backlogs = %d, want 1 (lowest-numbered peer)", got)
	}
}

// TestWorkStealingMatchesAverseWhenAffine: with every ready thread
// affine or fresh, steal is migration-averse exactly — the policies only
// part ways when a processor would otherwise poach.
func TestWorkStealingMatchesAverseWhenAffine(t *testing.T) {
	run := func(d DispatchPolicy) Stats {
		k := newKernel(4, Config{Quantum: 500, Dispatch: d, Seed: 3})
		policyWorkload(k)
		k.RunUntilDone(100_000_000)
		return k.Stats()
	}
	// 8 threads on 4 CPUs: the ready queue always holds an affine or
	// fresh thread for any processor, so the steal branch never fires
	// and the schedules must be identical.
	if a, s := run(MigrationAverse{}), run(WorkStealing{}); a != s {
		t.Fatalf("steal diverged from averse without contention\naverse: %+v\nsteal: %+v", a, s)
	}
}

// TestCPUServiceAccounting: the per-CPU service counters partition
// thread instructions — their sum equals the sum over threads, and a
// balanced workload spreads service across every processor.
func TestCPUServiceAccounting(t *testing.T) {
	k := newKernel(4, Config{Quantum: 500, Seed: 3})
	policyWorkload(k)
	k.RunUntilDone(100_000_000)
	var bySvc, byThread uint64
	for p := 0; p < 4; p++ {
		svc := k.CPUService(p)
		if svc == 0 {
			t.Fatalf("processor %d recorded no service", p)
		}
		bySvc += svc
	}
	for _, th := range k.Threads() {
		byThread += th.Instructions
	}
	if bySvc != byThread {
		t.Fatalf("service sum %d != thread instruction sum %d", bySvc, byThread)
	}
}

// TestPolicyRegistry covers name lookup.
func TestPolicyRegistry(t *testing.T) {
	for _, name := range PolicyNames() {
		p, ok := PolicyByName(name)
		if !ok || p == nil {
			t.Fatalf("PolicyByName(%q) failed", name)
		}
		if p.Name() != name {
			t.Fatalf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, ok := PolicyByName("lottery"); ok {
		t.Fatal("PolicyByName accepted an unknown name")
	}
}
