package experiments

import (
	"fmt"

	"firefly/internal/machine"
	"firefly/internal/mod2"
	"firefly/internal/stats"
	"firefly/internal/topaz"
)

// GCOffload measures the §6 claim: "Single threaded applications that use
// garbage collection also benefit [from multiprocessing]. The application
// must pay the in-line cost of reference counted assignments, but the
// collector itself runs as a separate thread on another processor." A
// single-threaded mutator runs with the concurrent trace-and-sweep
// collector on one processor (interleaved) and on two (overlapped).
func GCOffload(cfg Config) Outcome {
	ops := int(cfg.cycles(400, 2000))
	maxCycles := cfg.cycles(400_000_000, 4_000_000_000)

	run := func(nproc int) (elapsed uint64, st mod2.Stats, ok bool) {
		m := machine.New(machine.MicroVAXConfig(nproc))
		k := topaz.NewKernel(m, topaz.Config{Quantum: 1000})
		h := mod2.NewHeap(k, 512)
		mutatorDone := false
		mutator := k.Fork(mod2.MutatorProgram(h, mod2.MutatorConfig{
			Ops: ops, CostPerOp: 800, Seed: 5,
		}), topaz.ThreadSpec{Name: "app"}, nil)
		k.Fork(mod2.CollectorProgram(h, mod2.CollectorConfig{
			Stop: func() bool { return mutatorDone && !h.Collecting() },
		}), topaz.ThreadSpec{Name: "collector"}, nil)

		const chunk = 100_000
		for used := uint64(0); used < maxCycles; used += chunk {
			m.Run(chunk)
			if mutator.State() == topaz.Done {
				if !mutatorDone {
					mutatorDone = true
					elapsed = uint64(m.Clock().Now())
				}
				if k.Done() {
					return elapsed, h.Stats(), true
				}
			}
		}
		return 0, h.Stats(), false
	}

	one, stOne, ok1 := run(1)
	two, stTwo, ok2 := run(2)

	t := stats.NewTable("Concurrent GC: mutator completion time (same program)",
		"CPUs", "mutator Mcycles", "GC cycles run", "cycle frees", "rc frees")
	row := func(n int, el uint64, st mod2.Stats, ok bool) {
		if !ok {
			t.AddRow(fmt.Sprintf("%d", n), "DNF", "-", "-", "-")
			return
		}
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2f", float64(el)/1e6),
			fmt.Sprintf("%d", st.GCCycles),
			fmt.Sprintf("%d", st.CycleFrees),
			fmt.Sprintf("%d", st.RCFrees))
	}
	row(1, one, stOne, ok1)
	row(2, two, stTwo, ok2)

	speedup := 0.0
	if ok1 && ok2 && two > 0 {
		speedup = float64(one) / float64(two)
	}
	text := t.String() + fmt.Sprintf(`
The single-threaded application finishes %.2fx faster on the
two-processor system: the in-line reference-count cost stays with the
mutator, but the trace-and-sweep work (the GC cycles above) overlaps on
the second processor instead of stealing mutator time (§6). Safety under
that concurrency rests on the Dijkstra write barrier and born-black
allocation, both property-tested in internal/mod2.
`, speedup)
	return Outcome{ID: "gc", Title: "Concurrent garbage collection offload", Text: text}
}
