// Package machine assembles whole Firefly systems: N processors behind
// snoopy caches, the MBus, the storage modules, and any attached I/O
// engines (QBus DMA, display controller), and runs the cycle loop. It is
// the measurement bench for the paper's Table 2 and the simulation
// cross-check of Table 1.
package machine

import (
	"fmt"
	"strings"

	"firefly/internal/core"
	"firefly/internal/cpu"
	"firefly/internal/fault"
	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/obs"
	"firefly/internal/sim"
	"firefly/internal/stats"
	"firefly/internal/trace"
)

// Config describes a Firefly system.
type Config struct {
	// Processors is the CPU count. The hardware shipped with one to seven
	// (one primary I/O processor plus up to three dual-CPU boards); the
	// simulator allows more for saturation studies.
	Processors int
	// Variant selects the processor implementation.
	Variant cpu.Variant
	// Protocol is the cache coherence protocol (core.Firefly{} unless
	// running a baseline comparison).
	Protocol core.Protocol
	// CacheLines overrides the per-variant cache geometry (0 = default:
	// 4096 lines for the MicroVAX, 16384 for the CVAX).
	CacheLines int
	// LineWords sets the cache line size in longwords (0 = the hardware's
	// 1). Larger lines fill and write back with multiple sequential MBus
	// operations — the design the paper's footnote weighed and rejected.
	LineWords int
	// MemoryModules and ModuleBytes configure storage (0 = defaults:
	// 4 x 4 MB for the MicroVAX, 4 x 32 MB for the CVAX).
	MemoryModules int
	ModuleBytes   uint32
	// Arbiter selects the bus arbitration policy (nil: the hardware's
	// fixed priority). The machine adopts the instance — Reset is called
	// at construction — so stateful arbiters must not be shared between
	// machines; sweep points each construct their own.
	Arbiter mbus.Arbiter
	// Seed drives every random stream in the machine.
	Seed uint64
	// Tracer, when non-nil, receives observability events from the bus,
	// the caches, the scheduler, and DMA engines. Nil (the default) keeps
	// every emission site on a single pointer test. Tracing can also be
	// enabled after construction with Machine.Trace.
	Tracer *obs.Tracer
	// Faults, when non-nil, installs a deterministic fault-injection plan
	// across the MBus, storage ECC, and cache tag stores. A zero-valued
	// plan seed defaults to the machine seed, so fault runs stay
	// reproducible per Config.Seed. Nil (the default) builds the plan-free
	// machine: no injector hooks, no extra work on the hot loop.
	Faults *fault.Config
}

// MicroVAXConfig returns the original Firefly with n processors.
func MicroVAXConfig(n int) Config {
	return Config{
		Processors: n,
		Variant:    cpu.MicroVAX78032(),
		Protocol:   core.Firefly{},
		Seed:       1,
	}
}

// CVAXConfig returns the second-version Firefly with n processors.
func CVAXConfig(n int) Config {
	return Config{
		Processors:    n,
		Variant:       cpu.CVAX78034(),
		Protocol:      core.Firefly{},
		CacheLines:    core.CVAXLines,
		MemoryModules: 4,
		ModuleBytes:   memory.CVAXModuleBytes,
		Seed:          1,
	}
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Protocol == nil {
		out.Protocol = core.Firefly{}
	}
	if out.CacheLines == 0 {
		if out.Variant.TickCycles == 1 {
			out.CacheLines = core.CVAXLines
		} else {
			out.CacheLines = core.MicroVAXLines
		}
	}
	if out.MemoryModules == 0 {
		out.MemoryModules = 4
	}
	if out.ModuleBytes == 0 {
		out.ModuleBytes = memory.MicroVAXModuleBytes
	}
	if out.LineWords == 0 {
		out.LineWords = 1
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// Validate checks the configuration. Zero cache geometry fields mean
// the defaults and are accepted.
func (c Config) Validate() error {
	if c.Processors < 1 {
		return fmt.Errorf("machine: need at least one processor, got %d", c.Processors)
	}
	if c.Processors > 64 {
		return fmt.Errorf("machine: %d processors is beyond any plausible MBus", c.Processors)
	}
	if !powerOfTwoOrZero(c.CacheLines) {
		return fmt.Errorf("machine: cache lines must be a power of two, got %d", c.CacheLines)
	}
	if !powerOfTwoOrZero(c.LineWords) {
		return fmt.Errorf("machine: line words must be a power of two, got %d", c.LineWords)
	}
	return c.Variant.Validate()
}

func powerOfTwoOrZero(n int) bool { return n >= 0 && n&(n-1) == 0 }

// Device is an attached engine that owns time alongside the processors
// and caches (QBus DMA, disk and Ethernet controllers, the display
// controller, RPC timers, the traffic engine). It follows the same
// contract as every other time owner (DESIGN.md, "The NextEvent
// contract"):
//
//   - Step advances the device one bus cycle.
//   - NextEvent names the earliest future cycle at which stepping it may
//     change observable state, or sim.Never when nothing happens until
//     new work arrives from outside the cycle loop. It is a pure function
//     of device state and may under-report the distance, never
//     over-report it; a device with no better answer returns now+1.
//   - SkipCycles(n) applies the per-cycle accounting n elided Steps
//     would have done (the DMA engine's grant-wait stalls); devices
//     without such accounting make it a no-op.
type Device interface {
	Step()
	NextEvent(now sim.Cycle) sim.Cycle
	SkipCycles(n uint64)
}

// Machine is an assembled Firefly system.
type Machine struct {
	cfg     Config
	clock   *sim.Clock
	bus     *mbus.Bus
	mem     *memory.System
	cpus    []*cpu.Processor
	caches  []*core.Cache
	devices []Device
	tracer  *obs.Tracer
	reg     *stats.Registry
	plan    *fault.Plan
}

// New builds a machine. Reference sources start nil; attach them with
// AttachSources (or install a Topaz kernel) before running.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{cfg: cfg, clock: &sim.Clock{}}
	m.bus = mbus.New(m.clock, cfg.Arbiter)
	m.mem = memory.NewSystem(cfg.MemoryModules, cfg.ModuleBytes)
	m.bus.AttachMemory(m.mem)
	for i := 0; i < cfg.Processors; i++ {
		cache := core.NewCacheGeometry(m.clock, cfg.Protocol, cfg.CacheLines, cfg.LineWords)
		p := cpu.New(i, m.clock, cfg.Variant, cache, nil, cfg.Seed+uint64(i)*7919)
		port := m.bus.Attach(cache, cache, p)
		if port != i {
			panic("machine: processor port mismatch")
		}
		m.caches = append(m.caches, cache)
		m.cpus = append(m.cpus, p)
	}
	if cfg.Faults != nil {
		fcfg := *cfg.Faults
		if fcfg.Seed == 0 {
			fcfg.Seed = cfg.Seed
		}
		m.plan = fault.NewPlan(fcfg, m.clock)
		m.bus.SetFaultInjector(m.plan)
		m.mem.SetECC(m.plan)
		for _, c := range m.caches {
			c.SetFaultPolicy(core.FaultPolicy{
				Tag:           m.plan,
				MaxRetries:    m.plan.MaxRetries(),
				BackoffCycles: m.plan.BackoffCycles(),
			})
		}
	}
	if cfg.Tracer != nil {
		m.installTracer(cfg.Tracer)
	}
	m.buildRegistry()
	return m
}

// installTracer points every emission site at tr.
func (m *Machine) installTracer(tr *obs.Tracer) {
	m.tracer = tr
	m.bus.SetTracer(tr)
	m.mem.SetTracer(tr, m.clock)
	for i, c := range m.caches {
		c.SetTracer(tr, i)
	}
	// Scheduler and DMA engines read the tracer lazily through
	// Machine.Tracer / Bus.Tracer, so nothing more to wire.
}

// Tracer returns the installed tracer, or nil when tracing is off.
func (m *Machine) Tracer() *obs.Tracer { return m.tracer }

// Trace enables tracing on a running machine, creating the tracer on
// first use and attaching the given sinks. It returns the tracer so
// callers can attach more sinks or read the event count.
func (m *Machine) Trace(sinks ...obs.Observer) *obs.Tracer {
	if m.tracer == nil {
		m.installTracer(obs.NewTracer())
	}
	for _, s := range sinks {
		m.tracer.Attach(s)
	}
	return m.tracer
}

// Registry returns the machine's statistics registry: every counter the
// machine maintains, by name. Report is a derived view of this registry.
func (m *Machine) Registry() *stats.Registry { return m.reg }

// opKinds enumerates the bus operation kinds for registry naming.
var opKinds = []mbus.OpKind{mbus.MRead, mbus.MWrite, mbus.MReadOwn, mbus.MUpdate, mbus.MInv}

// buildRegistry names every counter in the machine. Getters read the
// live component state, so a snapshot is always current and ResetStats
// needs no registry cooperation.
func (m *Machine) buildRegistry() {
	r := stats.NewRegistry()
	bus := m.bus
	r.Register("bus.cycles", func() uint64 { return bus.Stats().Cycles })
	r.Register("bus.busy_cycles", func() uint64 { return bus.Stats().BusyCycles })
	r.Register("bus.shared_hits", func() uint64 { return bus.Stats().SharedHits })
	r.Register("bus.wait_cycles", func() uint64 { return bus.Stats().WaitCycles })
	r.Register("bus.ops.total", func() uint64 { return bus.Stats().TotalOps() })
	// Per-port fairness counters for the processor ports (DMA engines
	// attach after construction and are not registered; read Bus.Stats
	// directly for those). These expose arbitration fairness through
	// Report without tracing enabled.
	for i := 0; i < m.cfg.Processors; i++ {
		i := i
		r.Register(fmt.Sprintf("bus.port%d.wait_cycles", i), func() uint64 {
			return bus.Stats().WaitPerPort[i]
		})
		r.Register(fmt.Sprintf("bus.port%d.ops", i), func() uint64 {
			return bus.Stats().PerPort[i]
		})
	}
	for _, k := range opKinds {
		k := k
		r.Register("bus.ops."+strings.ToLower(k.String()), func() uint64 {
			return bus.Stats().Ops[k]
		})
	}
	for i := range m.cpus {
		p := m.cpus[i]
		pre := fmt.Sprintf("cpu%d.", i)
		r.Register(pre+"instructions", func() uint64 { return p.Stats().Instructions })
		r.Register(pre+"ticks", func() uint64 { return p.Stats().Ticks })
		r.Register(pre+"stall_ticks", func() uint64 { return p.Stats().StallTicks })
		r.Register(pre+"probe_stalls", func() uint64 { return p.Stats().ProbeStalls })
		r.Register(pre+"reads", func() uint64 { return p.Stats().Reads })
		r.Register(pre+"writes", func() uint64 { return p.Stats().Writes })
		r.Register(pre+"onchip_hits", func() uint64 { return p.Stats().OnChipHits })
		r.Register(pre+"interrupts", func() uint64 { return p.Stats().Interrupts })
	}
	for i := range m.caches {
		c := m.caches[i]
		pre := fmt.Sprintf("cache%d.", i)
		r.Register(pre+"reads", func() uint64 { return c.Stats().Reads })
		r.Register(pre+"writes", func() uint64 { return c.Stats().Writes })
		r.Register(pre+"read_hits", func() uint64 { return c.Stats().ReadHits })
		r.Register(pre+"write_hits", func() uint64 { return c.Stats().WriteHits })
		r.Register(pre+"local_write_hits", func() uint64 { return c.Stats().LocalWriteHits })
		r.Register(pre+"read_misses", func() uint64 { return c.Stats().ReadMisses })
		r.Register(pre+"write_misses", func() uint64 { return c.Stats().WriteMisses })
		r.Register(pre+"fills", func() uint64 { return c.Stats().Fills })
		r.Register(pre+"fill_ops", func() uint64 { return c.Stats().FillOps })
		r.Register(pre+"victim_ops", func() uint64 { return c.Stats().VictimOps })
		r.Register(pre+"direct_write_misses", func() uint64 { return c.Stats().DirectWriteMisses })
		r.Register(pre+"victim_writes", func() uint64 { return c.Stats().VictimWrites })
		r.Register(pre+"write_through_shared", func() uint64 { return c.Stats().WriteThroughShared })
		r.Register(pre+"write_through_clean", func() uint64 { return c.Stats().WriteThroughClean })
		r.Register(pre+"invalidations", func() uint64 { return c.Stats().Invalidations })
		r.Register(pre+"snoop_probes", func() uint64 { return c.Stats().SnoopProbes })
		r.Register(pre+"snoop_hits", func() uint64 { return c.Stats().SnoopHits })
		r.Register(pre+"snoop_supplies", func() uint64 { return c.Stats().SnoopSupplies })
		r.Register(pre+"snoop_takes", func() uint64 { return c.Stats().SnoopTakes })
		r.Register(pre+"snoop_invals", func() uint64 { return c.Stats().SnoopInvals })
		r.Register(pre+"bus_faults", func() uint64 { return c.Stats().BusFaults })
		r.Register(pre+"retries", func() uint64 { return c.Stats().Retries })
		r.Register(pre+"tag_faults", func() uint64 { return c.Stats().TagFaults })
		r.Register(pre+"machine_checks", func() uint64 { return c.Stats().MachineChecks })
		r.Register(pre+"abandoned", func() uint64 { return c.Stats().Abandoned })
	}
	r.Register("bus.faulted_ops", func() uint64 { return m.bus.Stats().FaultedOps })
	r.Register("bus.dropped_interrupts", func() uint64 { return m.bus.Stats().DroppedInterrupts })
	r.Register("mem.ecc_corrected", func() uint64 { return m.mem.ECCStats().Corrected })
	r.Register("mem.ecc_uncorrectable", func() uint64 { return m.mem.ECCStats().Uncorrectable })
	if m.plan != nil {
		m.plan.RegisterStats(r)
	}
	m.reg = r
}

// Config returns the machine's (defaulted) configuration.
func (m *Machine) Config() Config { return m.cfg }

// Clock returns the machine clock.
func (m *Machine) Clock() *sim.Clock { return m.clock }

// Bus returns the MBus, for attaching I/O engines.
func (m *Machine) Bus() *mbus.Bus { return m.bus }

// Faults returns the installed fault plan, or nil when the machine runs
// fault-free. Callers wiring QBus DMA engines pass it (with its retry
// policy) to Engine.SetFaultPolicy so injection covers the I/O path too.
func (m *Machine) Faults() *fault.Plan { return m.plan }

// Memory returns the storage system.
func (m *Machine) Memory() *memory.System { return m.mem }

// Processors returns the CPUs.
func (m *Machine) Processors() []*cpu.Processor { return m.cpus }

// CPU returns processor i.
func (m *Machine) CPU(i int) *cpu.Processor { return m.cpus[i] }

// Cache returns processor i's cache.
func (m *Machine) Cache(i int) *core.Cache { return m.caches[i] }

// Caches returns every processor's cache, indexed by processor. The
// returned slice is the machine's own; callers must not mutate it. The
// coherence checker walks it to compare line copies across caches.
func (m *Machine) Caches() []*core.Cache { return m.caches }

// AddDevice registers a device for per-cycle stepping. The device is
// responsible for attaching itself to the bus.
func (m *Machine) AddDevice(d Device) { m.devices = append(m.devices, d) }

// AttachSources installs a reference source per processor.
func (m *Machine) AttachSources(mk func(i int, c *core.Cache) trace.Source) {
	for i, p := range m.cpus {
		p.SetSource(mk(i, m.caches[i]))
	}
}

// AttachSyntheticLoad installs the parameterized generator on every
// processor: the machine-level analogue of the paper's trace
// characterization (M, S as given; D emerges from the write mix).
func (m *Machine) AttachSyntheticLoad(load trace.SyntheticLoad) {
	if err := load.Validate(); err != nil {
		panic(err)
	}
	shared := trace.NewSharedRegion(0x8000, 64)
	privateBytes := uint32(1 << 19) // 512 KB per CPU: far larger than the cache
	m.AttachSources(func(i int, c *core.Cache) trace.Source {
		return trace.NewSynthetic(trace.SyntheticConfig{
			MissRate:           load.MissRate,
			ShareFraction:      load.ShareFraction,
			SharedReadFraction: load.SharedReadFraction,
			PrivateBase:        mbus.Addr(0x100000 + uint32(i)*privateBytes),
			PrivateBytes:       privateBytes,
			Seed:               m.cfg.Seed*31 + uint64(i),
		}, shared, c)
	})
}

// Step advances the machine one bus cycle: bus, then caches (deferred
// work), then devices, then processors. Processor requests raised in this
// cycle reach arbitration on the next, matching the hardware's
// request/grant timing. Step runs every processor on every cycle: it is
// the cycle-by-cycle reference that Run must reproduce exactly.
func (m *Machine) Step() {
	m.clock.Tick()
	m.bus.Step()
	for _, c := range m.caches {
		c.Step()
	}
	for _, d := range m.devices {
		d.Step()
	}
	for _, p := range m.cpus {
		p.Step()
	}
}

// Run advances the machine by n cycles, byte-identical to calling Step n
// times. It is one event loop: jump the clock to one cycle before the
// machine's NextEvent in a single SkipCycles advance, then step that
// cycle, running only the processors due in it. Every time owner is
// exact or conservative (DESIGN.md, "The NextEvent contract"), so the
// elided cycles and processor ticks are provably no-ops apart from the
// accounting that bulk advances apply: the bus and device counters in
// SkipCycles, the processors' tick credit when they next act.
func (m *Machine) Run(n uint64) {
	end := m.clock.Now() + sim.Cycle(n)
	for now := m.clock.Now(); now < end; now = m.clock.Now() {
		// An operation in flight steps the next cycle anyway; only an
		// idle bus is worth the scan.
		if !m.bus.Busy() {
			ne := m.NextEvent(now)
			if ne > end {
				m.SkipCycles(uint64(end - now))
				return
			}
			if ne > now+1 {
				m.SkipCycles(uint64(ne - 1 - now))
			}
		}
		m.stepDue()
	}
}

// stepDue is Step for Run: the same cycle in the same order, with the
// processors that are not due left to their bulk credit.
func (m *Machine) stepDue() {
	now := m.clock.Tick()
	m.bus.Step()
	for _, c := range m.caches {
		c.Step()
	}
	for _, d := range m.devices {
		d.Step()
	}
	for _, p := range m.cpus {
		if p.Due(now) {
			p.Step()
		}
	}
}

// NextEvent reports the earliest future cycle at which stepping the
// machine may change observable state, with sim.Never meaning the
// machine is fully quiescent until new outside work arrives: the minimum
// over the bus, processors, caches, devices and fault plan. An active
// bus answers the next cycle without scanning the rest. The cluster uses
// it to big-step several machines and the Ethernet segment together.
func (m *Machine) NextEvent(now sim.Cycle) sim.Cycle {
	ev := m.bus.NextEvent(now)
	if ev <= now+1 {
		return ev
	}
	for _, p := range m.cpus {
		ev = sim.EarliestEvent(ev, p.NextEvent(now))
	}
	for _, c := range m.caches {
		ev = sim.EarliestEvent(ev, c.NextEvent(now))
	}
	for _, d := range m.devices {
		ev = sim.EarliestEvent(ev, d.NextEvent(now))
	}
	if m.plan != nil {
		ev = sim.EarliestEvent(ev, m.plan.NextEvent(now))
	}
	return ev
}

// SkipCycles advances the machine n cycles in one bulk jump: the clock
// and the bus cycle counter move, and every device applies its per-cycle
// accounting. Valid only when the machine has no event in the window
// (NextEvent(now) > now+n); Run and the cluster maintain that invariant.
func (m *Machine) SkipCycles(n uint64) {
	m.clock.Advance(sim.Cycle(n))
	m.bus.SkipCycles(n)
	for _, d := range m.devices {
		d.SkipCycles(n)
	}
}

// RunSeconds advances the machine by the given simulated time, rounded
// to the nearest whole cycle. It panics on a negative or non-finite
// duration (see sim.SecondsToCycles).
func (m *Machine) RunSeconds(s float64) {
	m.Run(sim.SecondsToCycles(s))
}

// Warmup runs the machine for n cycles and then clears every statistic,
// so measurements exclude cold-start transients (the paper's Table 2
// one-CPU column is visibly distorted by exactly such effects).
func (m *Machine) Warmup(n uint64) {
	m.Run(n)
	m.ResetStats()
}

// ResetStats clears all counters (cache contents are preserved).
func (m *Machine) ResetStats() {
	m.bus.ResetStats()
	for _, c := range m.caches {
		c.ResetStats()
	}
	for _, p := range m.cpus {
		p.ResetStats()
	}
}
