package cpu

import (
	"math"
	"testing"

	"firefly/internal/core"
	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// machine is a minimal CPU test bench: bus, memory, caches, processors,
// stepped in the production order (bus, then caches, then processors).
type machine struct {
	clock *sim.Clock
	bus   *mbus.Bus
	mem   *memory.System
	cpus  []*Processor
}

func newMachine(n int, v Variant, mkSource func(i int, c *core.Cache) trace.Source) *machine {
	m := &machine{clock: &sim.Clock{}}
	m.bus = mbus.New(m.clock, mbus.NewFixedPriority())
	m.mem = memory.NewMicroVAXSystem(4)
	m.bus.AttachMemory(m.mem)
	for i := 0; i < n; i++ {
		cache := core.NewCache(m.clock, core.Firefly{}, 256)
		p := New(i, m.clock, v, cache, nil, 1000+uint64(i))
		p.SetSource(mkSource(i, cache))
		m.bus.Attach(cache, cache, p)
		m.cpus = append(m.cpus, p)
	}
	return m
}

func (m *machine) run(cycles int) {
	for i := 0; i < cycles; i++ {
		m.clock.Tick()
		m.bus.Step()
		for _, p := range m.cpus {
			p.Cache().Step()
		}
		for _, p := range m.cpus {
			p.Step()
		}
	}
}

func hitSource(int, *core.Cache) trace.Source { return &trace.Fixed{Addr: 0x1000} }

func syntheticSource(miss float64) func(int, *core.Cache) trace.Source {
	shared := trace.NewSharedRegion(0x300000, 16)
	return func(i int, c *core.Cache) trace.Source {
		return trace.NewSynthetic(trace.SyntheticConfig{
			MissRate:     miss,
			PrivateBase:  mbus.Addr(0x10000 + i*0x10000),
			PrivateBytes: 0x10000,
			Seed:         77 + uint64(i),
		}, shared, c)
	}
}

func TestVariantValidate(t *testing.T) {
	for _, v := range []Variant{MicroVAX78032(), CVAX78034()} {
		if err := v.Validate(); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
	}
	bad := []Variant{
		{TickCycles: 0, BaseTPI: 10},
		{TickCycles: 1, BaseTPI: 0.5},
		{TickCycles: 1, BaseTPI: 10, IR: -1},
		{TickCycles: 1, BaseTPI: 10, IR: 2},
		{TickCycles: 1, BaseTPI: 10, OnChipHitRate: 1.5},
		{TickCycles: 1, BaseTPI: 10, PartialWriteFraction: -0.2},
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("bad variant %d validated", i)
		}
	}
	if tr := MicroVAX78032().TR(); math.Abs(tr-2.13) > 1e-9 {
		t.Fatalf("TR = %v", tr)
	}
}

func TestNewPanics(t *testing.T) {
	clock := &sim.Clock{}
	cache := core.NewCache(clock, core.Firefly{}, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid variant did not panic")
		}
	}()
	New(0, clock, Variant{}, cache, nil, 1)
}

func TestBaseTPIWithAllHits(t *testing.T) {
	// A single processor whose references always hit must achieve its base
	// TPI (one cold miss aside).
	m := newMachine(1, MicroVAX78032(), hitSource)
	m.run(400_000) // 200k ticks ≈ 16.8k instructions
	st := m.cpus[0].Stats()
	if st.Instructions < 10_000 {
		t.Fatalf("only %d instructions retired", st.Instructions)
	}
	tpi := st.TPI()
	if math.Abs(tpi-11.9) > 0.1 {
		t.Fatalf("TPI = %v, want ~11.9", tpi)
	}
	if st.StallTicks > 10 {
		t.Fatalf("all-hit run stalled %d ticks", st.StallTicks)
	}
}

func TestReferenceMix(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), hitSource)
	m.run(500_000)
	st := m.cpus[0].Stats()
	refsPerInstr := float64(st.Refs()) / float64(st.Instructions)
	if math.Abs(refsPerInstr-2.13) > 0.05 {
		t.Fatalf("refs/instr = %v, want ~2.13", refsPerInstr)
	}
	readRatio := float64(st.Reads) / float64(st.Refs())
	if math.Abs(readRatio-1.73/2.13) > 0.02 {
		t.Fatalf("read fraction = %v, want ~0.812", readRatio)
	}
}

func TestMissPenaltyMatchesModel(t *testing.T) {
	// With every reference missing and no other bus users, each miss costs
	// the model's N=2 extra ticks (fill or direct write-through), so
	// TPI ≈ 11.9 + TR*N ≈ 16.2 (all lines stay clean: reads fill
	// Exclusive, write misses use the direct write-through).
	m := newMachine(1, MicroVAX78032(), syntheticSource(1.0))
	m.run(400_000)
	st := m.cpus[0].Stats()
	tpi := st.TPI()
	want := 11.9 + 2.13*2
	if math.Abs(tpi-want) > 0.5 {
		t.Fatalf("TPI = %v, want ~%v", tpi, want)
	}
	cst := m.cpus[0].Cache().Stats()
	if cst.VictimWrites != 0 {
		t.Fatalf("unexpected victim writes: %d", cst.VictimWrites)
	}
}

func TestMissRateTracksSource(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), syntheticSource(0.2))
	m.run(600_000)
	cst := m.cpus[0].Cache().Stats()
	if mr := cst.MissRate(); math.Abs(mr-0.2) > 0.03 {
		t.Fatalf("miss rate = %v, want ~0.2", mr)
	}
}

func TestOnChipICacheAbsorbsInstrReads(t *testing.T) {
	v := CVAX78034()
	v.OnChipHitRate = 1.0
	m := newMachine(1, v, hitSource)
	m.run(100_000)
	st := m.cpus[0].Stats()
	if st.OnChipHits == 0 {
		t.Fatal("no on-chip hits recorded")
	}
	// All board-cache reads must now be data reads: per instruction
	// Reads/Instructions ≈ DR = 0.78.
	perInstr := float64(st.Reads) / float64(st.Instructions)
	if math.Abs(perInstr-0.78) > 0.03 {
		t.Fatalf("board reads/instr = %v, want ~0.78 (DR only)", perInstr)
	}
}

func TestCVAXTicksTwiceAsFast(t *testing.T) {
	mv := newMachine(1, MicroVAX78032(), hitSource)
	cv := newMachine(1, CVAX78034(), hitSource)
	mv.run(100_000)
	cv.run(100_000)
	mvTicks := mv.cpus[0].Stats().Ticks
	cvTicks := cv.cpus[0].Stats().Ticks
	if cvTicks < mvTicks*19/10 || cvTicks > mvTicks*21/10 {
		t.Fatalf("tick ratio = %d/%d, want ~2", cvTicks, mvTicks)
	}
}

func TestHaltResume(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), hitSource)
	m.run(1000)
	m.cpus[0].Halt()
	if !m.cpus[0].Halted() {
		t.Fatal("not halted")
	}
	before := m.cpus[0].Stats().Ticks
	m.run(1000)
	if m.cpus[0].Stats().Ticks != before {
		t.Fatal("halted CPU consumed ticks")
	}
	m.cpus[0].Resume()
	m.run(1000)
	if m.cpus[0].Stats().Ticks == before {
		t.Fatal("resumed CPU did not run")
	}
}

func TestInterruptDeliveryAndDrain(t *testing.T) {
	m := newMachine(2, MicroVAX78032(), hitSource)
	m.bus.Interrupt(0, 1)
	m.bus.Interrupt(0, 1)
	ints := m.cpus[1].TakeInterrupts()
	if len(ints) != 2 || ints[0] != 0 {
		t.Fatalf("interrupts = %v", ints)
	}
	if len(m.cpus[1].TakeInterrupts()) != 0 {
		t.Fatal("drain not empty")
	}
	if m.cpus[1].Stats().Interrupts != 2 {
		t.Fatalf("interrupt counter = %d", m.cpus[1].Stats().Interrupts)
	}
}

func TestInstrHookAndSetSource(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), hitSource)
	var hookCount int
	other := &trace.Fixed{Addr: 0x2000}
	m.cpus[0].SetInstrHook(func(p *Processor) {
		hookCount++
		if hookCount == 5 {
			p.SetSource(other)
		}
	})
	m.run(2000)
	if hookCount == 0 {
		t.Fatal("hook never fired")
	}
	if m.cpus[0].Source() != other {
		t.Fatal("SetSource from hook did not take effect")
	}
	// The new source's address must now be cached.
	if !m.cpus[0].Cache().Contains(0x2000) {
		t.Fatal("references did not follow the new source")
	}
}

func TestHookCanHalt(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), hitSource)
	m.cpus[0].SetInstrHook(func(p *Processor) { p.Halt() })
	m.run(1000)
	st := m.cpus[0].Stats()
	if st.Instructions > 2 {
		t.Fatalf("halt from hook ignored: %d instructions", st.Instructions)
	}
}

func TestProbeStallsUnderSnooping(t *testing.T) {
	// Two CPUs: CPU 1 misses constantly, so its bus operations probe CPU
	// 0's tag store; CPU 0 (all hits) must record probe stalls.
	m := newMachine(2, MicroVAX78032(), func(i int, c *core.Cache) trace.Source {
		if i == 0 {
			return &trace.Fixed{Addr: 0x1000}
		}
		return syntheticSource(1.0)(i, c)
	})
	m.run(200_000)
	st := m.cpus[0].Stats()
	if st.ProbeStalls == 0 {
		t.Fatal("no probe stalls despite heavy snooping")
	}
	// The stall rate must be in the neighbourhood of the model's SP term:
	// probability L/N per reference.
	load := m.bus.Stats().Load()
	perRef := float64(st.ProbeStalls) / float64(st.Refs())
	want := load / 2
	if perRef < want*0.5 || perRef > want*1.6 {
		t.Fatalf("probe stalls/ref = %v, want ~%v (L/N with L=%v)", perRef, want, load)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		m := newMachine(2, MicroVAX78032(), syntheticSource(0.2))
		m.run(50_000)
		return m.cpus[0].Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestStallAccountingConsistent(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), syntheticSource(0.5))
	m.run(200_000)
	st := m.cpus[0].Stats()
	if st.StallTicks == 0 {
		t.Fatal("a 50%-miss run must stall")
	}
	if st.StallTicks >= st.Ticks {
		t.Fatalf("stalls %d >= ticks %d", st.StallTicks, st.Ticks)
	}
	// TPI grows with the stalls: base + stalls per instruction.
	wantTPI := 11.9 + float64(st.StallTicks)/float64(st.Instructions)
	if math.Abs(st.TPI()-wantTPI) > 0.2 {
		t.Fatalf("TPI = %v, want ~%v from stall accounting", st.TPI(), wantTPI)
	}
}
