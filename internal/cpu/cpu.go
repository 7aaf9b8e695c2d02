// Package cpu models the Firefly's processors as stochastic reference
// engines. The paper's own analysis (§5.2) reduces the MicroVAX 78032 to
// architectural constants — 11.9 ticks per instruction against
// no-wait-state memory, and the Emer & Clark per-instruction reference mix
// of .95 instruction reads, .78 data reads, and .40 data writes — and the
// processor model implements exactly that abstraction: every result in the
// paper depends on the reference stream's statistics, not on VAX
// instruction semantics.
//
// Timing: a processor acts once per tick (two 100 ns bus cycles for the
// MicroVAX, one for the CVAX). Each instruction consumes its base ticks;
// cache misses and write-throughs stall the processor for the full MBus
// operation (the model's N ticks plus queueing), and a tag-store probe by
// another cache's bus operation in the same tick costs one extra tick (the
// SP term).
//
// Only three kinds of tick change anything outside the processor: the
// instruction boundary (the scheduler hook and the next instruction's
// draw), each reference, and the first tick after a stall ends. The ticks
// between them count down a compute chunk or wait on the cache. The
// processor therefore owns its time exactly: NextEvent names the next
// acting tick, and the ticks before it are credited in bulk when the
// processor next acts (or when its counters are read).
package cpu

import (
	"fmt"
	"math/bits"

	"firefly/internal/core"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// Variant describes a processor implementation.
type Variant struct {
	// Name identifies the variant in reports.
	Name string
	// TickCycles is the processor tick length in 100 ns bus cycles:
	// 2 for the MicroVAX 78032 (200 ns ticks), 1 for the CVAX 78034.
	TickCycles int
	// BaseTPI is ticks per instruction with no-wait-state memory.
	BaseTPI float64
	// IR, DR, DW are the per-instruction reference probabilities.
	IR, DR, DW float64
	// OnChipICache models the CVAX's 1 KB on-chip cache, which the
	// Firefly configures "to store only instruction references, not data"
	// to simplify coherence (§5).
	OnChipICache bool
	// OnChipHitRate is the fraction of instruction reads absorbed on-chip.
	OnChipHitRate float64
	// OnChipDCache lets the on-chip cache absorb data reads as well — the
	// configuration the Firefly designers rejected ("we have chosen to
	// configure that cache to store only instruction references, not
	// data", §5). The ablation measures only the performance the Firefly
	// gave up; the coherence hazard that motivated the rejection (the
	// snooping hardware cannot see on-chip data) is exactly why this knob
	// is unsafe on real hardware.
	OnChipDCache bool
	// PartialWriteFraction is the fraction of writes that are sub-longword
	// and therefore cannot use the direct write-miss optimization. The
	// paper notes "most writes are to aligned (32-bit) longwords".
	PartialWriteFraction float64
}

// MicroVAX78032 returns the original Firefly processor: 200 ns ticks,
// 11.9 TPI, no on-chip cache.
func MicroVAX78032() Variant {
	return Variant{
		Name:       "MicroVAX 78032",
		TickCycles: 2,
		BaseTPI:    11.9,
		IR:         0.95, DR: 0.78, DW: 0.40,
	}
}

// CVAX78034 returns the second-version processor: 100 ns ticks, a modestly
// better base TPI, and the on-chip instruction-only cache. The BaseTPI and
// on-chip hit rate are calibrated so a CVAX Firefly delivers the paper's
// observed 2.0-2.5x speedup over the MicroVAX version.
func CVAX78034() Variant {
	return Variant{
		Name:       "CVAX 78034",
		TickCycles: 1,
		BaseTPI:    10.0,
		IR:         0.95, DR: 0.78, DW: 0.40,
		OnChipICache:  true,
		OnChipHitRate: 0.75,
	}
}

// Validate checks the variant for plausibility.
func (v Variant) Validate() error {
	switch {
	case v.TickCycles < 1:
		return fmt.Errorf("cpu: TickCycles %d must be >= 1", v.TickCycles)
	case v.BaseTPI < 1:
		return fmt.Errorf("cpu: BaseTPI %v must be >= 1", v.BaseTPI)
	case v.IR < 0 || v.DR < 0 || v.DW < 0:
		return fmt.Errorf("cpu: negative reference probabilities")
	case v.IR > 1 || v.DR > 1 || v.DW > 1:
		return fmt.Errorf("cpu: reference probabilities above 1 unsupported")
	case v.OnChipHitRate < 0 || v.OnChipHitRate > 1:
		return fmt.Errorf("cpu: OnChipHitRate %v out of [0,1]", v.OnChipHitRate)
	case v.PartialWriteFraction < 0 || v.PartialWriteFraction > 1:
		return fmt.Errorf("cpu: PartialWriteFraction %v out of [0,1]", v.PartialWriteFraction)
	}
	return nil
}

// TR returns the variant's mean references per instruction.
func (v Variant) TR() float64 { return v.IR + v.DR + v.DW }

// Stats counts processor activity.
type Stats struct {
	Instructions uint64
	Ticks        uint64 // total processor ticks elapsed
	StallTicks   uint64 // ticks spent waiting on the cache/bus
	ProbeStalls  uint64 // ticks lost to tag-store snoop interference
	Reads        uint64 // read references presented to the board cache
	Writes       uint64 // write references presented to the board cache
	OnChipHits   uint64 // instruction reads absorbed by the on-chip cache
	Interrupts   uint64 // interprocessor interrupts received
}

// Refs returns total references presented to the board cache.
func (s Stats) Refs() uint64 { return s.Reads + s.Writes }

// TPI returns achieved ticks per instruction.
func (s Stats) TPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Ticks) / float64(s.Instructions)
}

// instruction step kinds.
type stepKind uint8

const (
	stepCompute stepKind = iota
	stepRef
)

type step struct {
	kind    stepKind
	refKind trace.Kind
	compute int
}

// Processor is one Firefly CPU. It acts on its tick boundaries: on every
// one when stepped each bus cycle, or only on its wakes (NextEvent) with
// the ticks between credited in bulk.
type Processor struct {
	id    int
	clock *sim.Clock
	v     Variant
	cache *core.Cache
	src   trace.Source
	// syn devirtualizes the reference-source call for the synthetic
	// generator (the sweep workloads' source): set when src is a
	// *trace.Synthetic so the per-reference Next goes through a direct
	// call instead of the interface. Kept in sync by SetSource.
	syn *trace.Synthetic
	// tickMask is TickCycles-1 when TickCycles is a power of two (both
	// hardware variants: 1 and 2), letting the per-cycle tick-boundary
	// test be a mask instead of a 64-bit modulo; -1 disables the fast
	// path. tickShift is then log2(TickCycles).
	tickMask  int64
	tickShift uint
	rng       *sim.Rand

	// last is the cycle through which the processor's ticks are
	// accounted, and wake the next tick at which it acts (sim.Never while
	// halted, or while stalled on an access still in progress: the
	// cache's completion hook sets it then). Every tick strictly between
	// the two is an elided no-op — a compute countdown tick or a stall
	// tick — that settle credits in bulk.
	last sim.Cycle
	wake sim.Cycle

	tpiCarry     float64
	queue        []step
	qhead        int // queue[qhead:] is the unconsumed tail; indexing instead of re-slicing keeps the buffer's capacity reusable
	waiting      bool
	probeStalled bool
	halted       bool

	instrHook func(p *Processor)

	pendingInts []int

	stats Stats
}

// New returns a processor bound to its cache and reference source.
func New(id int, clock *sim.Clock, v Variant, cache *core.Cache, src trace.Source, seed uint64) *Processor {
	if err := v.Validate(); err != nil {
		panic(err)
	}
	if cache == nil {
		panic("cpu: processor needs a cache")
	}
	p := &Processor{
		id:       id,
		clock:    clock,
		v:        v,
		cache:    cache,
		tickMask: -1,
		rng:      sim.NewRand(seed ^ uint64(id)*0x9e3779b9),
	}
	if v.TickCycles&(v.TickCycles-1) == 0 {
		p.tickMask = int64(v.TickCycles - 1)
		p.tickShift = uint(bits.TrailingZeros(uint(v.TickCycles)))
	}
	p.SetSource(src)
	p.last = clock.Now()
	p.schedule()
	cache.SetCompletionHook(p.cacheDone)
	return p
}

// ID returns the processor number.
func (p *Processor) ID() int { return p.id }

// Variant returns the processor's implementation parameters.
func (p *Processor) Variant() Variant { return p.v }

// Cache returns the processor's board cache.
func (p *Processor) Cache() *core.Cache { return p.cache }

// Stats returns a snapshot of the processor counters, including the
// elided ticks not yet credited, so it is exact between machine cycles.
func (p *Processor) Stats() Stats {
	s := p.stats
	if k := p.elided(p.clock.Now()); k > 0 {
		s.Ticks += k
		if p.waiting {
			s.StallTicks += k
		} else if st := p.queue[p.qhead]; k == uint64(st.compute) && p.qhead+1 == len(p.queue) {
			s.Instructions++
		}
	}
	return s
}

// ResetStats clears the counters. The ticks elided so far are credited
// first, so none of them leaks into the new measurement window.
func (p *Processor) ResetStats() {
	p.settle(p.clock.Now())
	p.stats = Stats{}
}

// SetSource changes the reference source (a context switch at the Topaz
// layer). Takes effect at the next reference.
func (p *Processor) SetSource(s trace.Source) {
	p.src = s
	p.syn, _ = s.(*trace.Synthetic)
}

// Source returns the current reference source.
func (p *Processor) Source() trace.Source { return p.src }

// SetInstrHook installs a callback invoked at every instruction boundary,
// before the next instruction begins. The Topaz scheduler uses it for
// quantum accounting and context switching.
func (p *Processor) SetInstrHook(fn func(*Processor)) { p.instrHook = fn }

// Halt stops the processor; Resume restarts it. A halted processor
// consumes no ticks. Both take effect between machine cycles (or, for
// Halt, from the processor's own instruction hook): the ticks elided up
// to the current cycle are credited at Halt, and Resume owes none of the
// halted ones.
func (p *Processor) Halt() {
	if !p.halted {
		p.settle(p.clock.Now())
		p.halted = true
		p.wake = sim.Never
	}
}

func (p *Processor) Resume() {
	if p.halted {
		p.halted = false
		p.last = p.clock.Now()
		p.schedule()
	}
}

// Halted reports whether the processor is halted.
func (p *Processor) Halted() bool { return p.halted }

// NextEvent reports the next cycle at which the processor acts: the end
// of the current compute chunk (the tick that starts the next reference
// or instruction), the next tick while a reference or instruction
// boundary is due, the first tick after the cache releases a stalled
// access, or sim.Never while halted or while the stalling access is still
// in progress (the cache's completion hook then sets the wake). Stepping
// the processor on any cycle before it is an observable no-op, and the
// ticks it skips are credited in bulk, so the answer is exact.
func (p *Processor) NextEvent(sim.Cycle) sim.Cycle { return p.wake }

// Due reports whether the processor acts at cycle now. The machine's run
// loop steps only due processors.
func (p *Processor) Due(now sim.Cycle) bool { return p.wake <= now }

// ticksThrough returns the number of tick boundaries in (0, c].
func (p *Processor) ticksThrough(c sim.Cycle) sim.Cycle {
	if p.tickMask >= 0 {
		return c >> p.tickShift
	}
	return c / sim.Cycle(p.v.TickCycles)
}

// tickAfter returns the k-th tick boundary after cycle c.
func (p *Processor) tickAfter(c sim.Cycle, k int) sim.Cycle {
	return (p.ticksThrough(c) + sim.Cycle(k)) * sim.Cycle(p.v.TickCycles)
}

// schedule sets wake from the processor's state after it has acted (or
// resumed) at cycle last.
func (p *Processor) schedule() {
	switch {
	case p.halted:
		p.wake = sim.Never
	case p.waiting:
		p.wakeFrom(p.cache.ReleaseAt())
	case p.qhead < len(p.queue) && p.queue[p.qhead].kind == stepCompute:
		// The chunk's remaining ticks are elided; the tick after them
		// starts the next step.
		p.wake = p.tickAfter(p.last, p.queue[p.qhead].compute+1)
	default:
		p.wake = p.tickAfter(p.last, 1)
	}
}

// cacheDone is the cache's completion hook: the access the processor is
// stalled on stops holding it at cycle at, so it wakes on the first tick
// from then.
func (p *Processor) cacheDone(at sim.Cycle) {
	if p.waiting && !p.halted {
		p.wakeFrom(at)
	}
}

// wakeFrom sets the wake to the first tick after last that is no earlier
// than cycle at (sim.Never stays Never).
func (p *Processor) wakeFrom(at sim.Cycle) {
	if at == sim.Never {
		p.wake = sim.Never
		return
	}
	if at <= p.last {
		at = p.last + 1
	}
	p.wake = p.tickAfter(at-1, 1)
}

// elided returns the number of ticks in (last, through] that the
// processor does not act on: all of them up to the tick before wake.
// Zero while halted.
func (p *Processor) elided(through sim.Cycle) uint64 {
	if p.halted {
		return 0
	}
	if through >= p.wake {
		through = p.wake - 1
	}
	if through <= p.last {
		return 0
	}
	return uint64(p.ticksThrough(through) - p.ticksThrough(p.last))
}

// settle credits the elided ticks through the given cycle.
func (p *Processor) settle(through sim.Cycle) {
	if k := p.elided(through); k > 0 {
		p.credit(k)
	}
	if through > p.last {
		p.last = through
	}
}

// credit applies k elided ticks: stall ticks while waiting, otherwise
// compute countdown ticks of the head step (the tick that empties the
// chunk also retires a finished instruction).
func (p *Processor) credit(k uint64) {
	p.stats.Ticks += k
	if p.waiting {
		p.stats.StallTicks += k
		return
	}
	st := &p.queue[p.qhead]
	if st.kind != stepCompute || uint64(st.compute) < k {
		panic(fmt.Sprintf("cpu%d: %d elided ticks past the end of a compute chunk", p.id, k))
	}
	st.compute -= int(k)
	if st.compute == 0 {
		p.qhead++
		if p.qhead == len(p.queue) {
			p.retire()
		}
	}
}

// Interrupt implements mbus.InterruptSink.
func (p *Processor) Interrupt(from int) {
	p.pendingInts = append(p.pendingInts, from)
	p.stats.Interrupts++
}

// TakeInterrupts drains and returns pending interprocessor interrupts.
func (p *Processor) TakeInterrupts() []int {
	ints := p.pendingInts
	p.pendingInts = nil
	return ints
}

// Step advances the processor by one bus cycle. It runs every tick
// boundary, including the ones NextEvent would let it skip: Machine.Step
// calls it on every cycle as the cycle-by-cycle reference, after the bus,
// caches and devices; Machine.Run calls it only on the cycles the
// processor is due.
func (p *Processor) Step() {
	if p.halted {
		return
	}
	if p.tickMask >= 0 {
		if int64(p.clock.Now())&p.tickMask != 0 {
			return
		}
	} else if uint64(p.clock.Now())%uint64(p.v.TickCycles) != 0 {
		return
	}
	p.tick()
}

// tick runs one processor tick at the current cycle: credit the ticks
// elided since the processor last acted, act, and schedule the next wake.
func (p *Processor) tick() {
	now := p.clock.Now()
	// now is a tick boundary after last and no later than wake, so every
	// tick strictly between the two was elided.
	if k := uint64(p.ticksThrough(now)-p.ticksThrough(p.last)) - 1; k > 0 {
		p.credit(k)
	}
	p.last = now
	p.stats.Ticks++
	p.act()
	p.schedule()
}

func (p *Processor) act() {
	if p.waiting {
		if p.cache.Busy() {
			p.stats.StallTicks++
			return
		}
		p.waiting = false
		// The completed reference already consumed its access tick at
		// submission; this tick proceeds with the next step.
	}

	if p.qhead == len(p.queue) {
		if p.instrHook != nil {
			p.instrHook(p)
			if p.halted {
				return
			}
		}
		p.buildInstruction()
	}

	st := &p.queue[p.qhead]
	if st.kind == stepCompute {
		st.compute--
		if st.compute <= 0 {
			p.qhead++
			if p.qhead == len(p.queue) {
				p.retire()
			}
		}
		return
	}

	// A reference step. Check tag-store interference first: a snoop probe
	// in this tick's window costs one tick (once per reference).
	if !p.probeStalled && p.cache.TagStoreBusyWithin(p.clock.Now(), p.v.TickCycles) {
		p.probeStalled = true
		p.stats.ProbeStalls++
		return
	}
	p.probeStalled = false

	var ref trace.Ref
	if p.syn != nil {
		ref = p.syn.Next(st.refKind)
	} else {
		ref = p.src.Next(st.refKind)
	}
	p.qhead++

	onChipEligible := p.v.OnChipICache &&
		(st.refKind == trace.InstrRead || (p.v.OnChipDCache && st.refKind == trace.DataRead))
	if onChipEligible && p.rng.Bool(p.v.OnChipHitRate) {
		p.stats.OnChipHits++
		if p.qhead == len(p.queue) {
			p.retire()
		}
		return
	}

	acc := core.Access{
		Write:   st.refKind.IsWrite(),
		Partial: ref.Partial || (st.refKind.IsWrite() && p.rng.Bool(p.v.PartialWriteFraction)),
		Addr:    ref.Addr,
		Data:    ref.Data,
	}
	if acc.Write {
		p.stats.Writes++
	} else {
		p.stats.Reads++
	}
	done := p.cache.Submit(acc)
	if !done {
		p.waiting = true
	}
	if p.qhead == len(p.queue) {
		p.retire()
	}
}

func (p *Processor) retire() {
	p.stats.Instructions++
}

// buildInstruction assembles the step queue for one instruction: the
// drawn references interleaved with compute ticks. A fractional
// accumulator keeps the long-run base ticks per instruction equal to
// BaseTPI without per-instruction rounding loss.
func (p *Processor) buildInstruction() {
	// refs is a fixed-size buffer: at most one reference per kind. (An
	// appended slice here allocated once per instruction — the dominant
	// allocation of the whole cycle loop.)
	var refs [3]trace.Kind
	nr := 0
	if p.rng.Bool(p.v.IR) {
		refs[nr] = trace.InstrRead
		nr++
	}
	if p.rng.Bool(p.v.DR) {
		refs[nr] = trace.DataRead
		nr++
	}
	if p.rng.Bool(p.v.DW) {
		refs[nr] = trace.DataWrite
		nr++
	}

	p.tpiCarry += p.v.BaseTPI
	baseTicks := int(p.tpiCarry)
	p.tpiCarry -= float64(baseTicks)

	compute := baseTicks - nr
	if compute < 0 {
		compute = 0
	}

	// Interleave: a compute chunk before each reference and the remainder
	// after the last (instruction decode, execute, result store).
	slots := nr + 1
	chunk := compute / slots
	extra := compute % slots
	p.queue = p.queue[:0]
	p.qhead = 0
	push := func(n int) {
		if n > 0 {
			p.queue = append(p.queue, step{kind: stepCompute, compute: n})
		}
	}
	for i, k := range refs[:nr] {
		n := chunk
		if i < extra {
			n++
		}
		push(n)
		p.queue = append(p.queue, step{kind: stepRef, refKind: k})
	}
	n := chunk
	if nr < extra {
		n++
	}
	push(n)
	if len(p.queue) == 0 {
		// Zero-reference instruction with zero compute (possible only with
		// degenerate BaseTPI): retire immediately next tick.
		p.queue = append(p.queue, step{kind: stepCompute, compute: 1})
	}
}
