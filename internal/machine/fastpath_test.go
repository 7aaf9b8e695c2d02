package machine

import (
	"fmt"
	"testing"

	"firefly/internal/mbus"
	"firefly/internal/qbus"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// stepN advances the machine cycle-by-cycle, bypassing Run's idle
// skip-ahead, to serve as the reference behaviour for the fast path.
func stepN(m *Machine, n uint64) {
	for i := uint64(0); i < n; i++ {
		m.Step()
	}
}

func haltAll(m *Machine) {
	for i := 0; i < m.Config().Processors; i++ {
		m.CPU(i).Halt()
	}
}

// TestIdleSkipEquivalence runs two identical machines through the same
// schedule — load, halt, idle tail — once through Run (which may bulk
// skip the idle tail) and once stepped cycle-by-cycle, and demands
// identical clocks and an identical report.
func TestIdleSkipEquivalence(t *testing.T) {
	load := trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05}
	build := func() *Machine {
		m := New(MicroVAXConfig(3))
		m.AttachSyntheticLoad(load)
		return m
	}
	fast, slow := build(), build()

	fast.Run(20_000)
	stepN(slow, 20_000)
	haltAll(fast)
	haltAll(slow)
	// The idle tail: Run should detect quiescence (after draining any
	// in-flight cache work step-by-step) and jump; stepN grinds through
	// every cycle.
	fast.Run(50_000)
	stepN(slow, 50_000)

	if fc, sc := fast.Clock().Now(), slow.Clock().Now(); fc != sc {
		t.Fatalf("clock diverged: skip path %d, stepped %d", fc, sc)
	}
	if fb, sb := fast.Bus().Stats().Cycles, slow.Bus().Stats().Cycles; fb != sb {
		t.Fatalf("bus cycle count diverged: skip path %d, stepped %d", fb, sb)
	}
	if fr, sr := fmt.Sprint(fast.Report()), fmt.Sprint(slow.Report()); fr != sr {
		t.Fatalf("reports diverged\n--- skip path ---\n%s\n--- stepped ---\n%s", fr, sr)
	}

	// Resuming after the skip must behave normally again.
	for i := 0; i < fast.Config().Processors; i++ {
		fast.CPU(i).Resume()
		slow.CPU(i).Resume()
	}
	fast.Run(10_000)
	stepN(slow, 10_000)
	if fr, sr := fmt.Sprint(fast.Report()), fmt.Sprint(slow.Report()); fr != sr {
		t.Fatalf("post-resume reports diverged\n--- skip path ---\n%s\n--- stepped ---\n%s", fr, sr)
	}
}

// TestIdleSkipAdvancesClock checks the skip actually fires: a machine
// with every processor halted must cover a long Run in a bulk jump with
// the bus cycle counter kept in step with the clock. An idle QBus DMA
// engine and DEQNA are attached: initiators other than the caches must
// not count as pending when their request lines are clear.
func TestIdleSkipAdvancesClock(t *testing.T) {
	m := New(MicroVAXConfig(2))
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2})
	maps := &qbus.MapRegisters{}
	maps.MapRange(0, 0x40000, 1<<15)
	eng := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
	m.AddDevice(eng)
	m.AddDevice(qbus.NewEthernet(m.Clock(), m.Bus(), eng, qbus.EthernetConfig{}))
	haltAll(m)
	if ne := m.NextEvent(m.Clock().Now()); ne != sim.Never {
		t.Fatalf("halted machine with idle DMA reports its next event at %d, want sim.Never (one jump)", ne)
	}
	const n = 100_000_000 // far too many cycles to tour component-by-component in test time
	m.Run(n)
	if got := uint64(m.Clock().Now()); got != n {
		t.Fatalf("clock at %d after Run(%d)", got, n)
	}
	if got := m.Bus().Stats().Cycles; got != n {
		t.Fatalf("bus cycles %d after Run(%d)", got, n)
	}
}

// TestRunSecondsRounds pins the satellite fix: RunSeconds rounds to the
// nearest cycle instead of truncating. 150 ns is 1.5 cycles; truncation
// ran 1 cycle, rounding runs 2.
func TestRunSecondsRounds(t *testing.T) {
	m := New(MicroVAXConfig(1))
	haltAll(m) // clock advance is all we measure
	m.RunSeconds(150e-9)
	if got := uint64(m.Clock().Now()); got != 2 {
		t.Fatalf("RunSeconds(150ns) advanced %d cycles, want 2 (rounded)", got)
	}
}

// TestStepZeroAllocsAnyArbiter extends the hot-loop allocation contract
// to the policy layer: the bus devirtualizes fixed priority, but the
// interface-dispatched arbiters (rr, fcfs) must not allocate per cycle
// either — fcfs in particular must reuse its queue storage once grown.
func TestStepZeroAllocsAnyArbiter(t *testing.T) {
	for _, name := range mbus.ArbiterNames() {
		t.Run(name, func(t *testing.T) {
			arb, ok := mbus.NewArbiterByName(name)
			if !ok {
				t.Fatalf("unknown arbiter %q", name)
			}
			cfg := MicroVAXConfig(3)
			cfg.Arbiter = arb
			m := New(cfg)
			m.AttachSyntheticLoad(stdLoad)
			m.Run(10_000) // warm caches, internal buffers, and the fcfs queue
			avg := testing.AllocsPerRun(2000, func() { m.Step() })
			if avg != 0 {
				t.Fatalf("machine.Step with %s arbiter allocates %.2f times per cycle, want 0", name, avg)
			}
			// The event loop: wakes, bulk tick credit, the completion
			// hook and the request word must not allocate either.
			avg = testing.AllocsPerRun(200, func() { m.Run(500) })
			if avg != 0 {
				t.Fatalf("loaded machine.Run with %s arbiter allocates %.2f times per Run(500), want 0", name, avg)
			}
		})
	}
}
