// Package fault is the deterministic fault-injection layer: a seeded,
// cycle- and address-targeted plan of hardware faults threaded through
// the machine. The Firefly's premise is graceful scaling — simple
// MBus/QBus hardware with error handling pushed up into software — and
// this package supplies the errors: MBus parity errors and timeouts,
// main-storage soft errors under an ECC detect/correct model, QBus NXM
// aborts and DMA stalls, and cache tag-store parity faults.
//
// Determinism contract: a Plan owns one independent xorshift stream per
// subsystem (bus, memory, DMA, tags, network), all derived from one seed, so a
// given plan + machine seed reproduces the exact same fault storm —
// injections, recoveries, event stream, and final report are
// byte-identical across runs. A plan whose rates are all zero draws no
// random numbers at all (sim.Rand.Bool(0) short-circuits) and is
// behaviourally indistinguishable from no plan.
//
// The package deliberately imports only mbus, sim, and stats. The
// component-side injection points are small interfaces declared by each
// component (mbus.FaultInjector, memory.ECCModel, core.TagFaultInjector,
// qbus.DMAFaultInjector, net.FaultInjector); Plan satisfies all of them
// structurally, so no component depends on this package.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"firefly/internal/mbus"
	"firefly/internal/sim"
	"firefly/internal/stats"
)

// Config describes a fault plan. All rates are per-event probabilities
// in [0,1]; a zero-value Config injects nothing.
type Config struct {
	// BusParityRate is the per-MBus-operation probability of an address
	// or data parity error. The operation aborts with no architectural
	// effect and the initiator retries.
	BusParityRate float64
	// BusTimeoutRate is the per-operation probability of a bus timeout:
	// like a parity error, but the operation additionally holds the bus
	// for TimeoutHoldCycles while the watchdog runs out.
	BusTimeoutRate float64
	// TimeoutHoldCycles is the watchdog window (default 8).
	TimeoutHoldCycles uint64

	// MemSoftErrorRate is the per-memory-read probability of a storage
	// soft error. ECC corrects most of them in flight.
	MemSoftErrorRate float64
	// MemUncorrectableFraction is the fraction of soft errors beyond
	// single-bit correction; those surface as faulted reads (default 0,
	// i.e. every soft error is correctable).
	MemUncorrectableFraction float64

	// DMANXMRate is the per-DMA-word probability of an injected
	// non-existent-memory abort: the transfer dies as on a mapping fault.
	DMANXMRate float64
	// DMAStallRate is the per-DMA-word probability of a controller stall
	// of DMAStallCycles (default 50).
	DMAStallRate   float64
	DMAStallCycles uint64

	// TagParityRate is the per-cache-hit probability of a tag-store
	// parity error. On a clean line the cache invalidates and refetches
	// (correctable); on a dirty line — the sole copy of its data — the
	// error is uncorrectable and latches a machine check.
	TagParityRate float64

	// NetDropRate is the per-frame probability that the shared Ethernet
	// segment silently loses a delivered frame (receiver deafness, CRC
	// damage). The RPC transport recovers by retransmission.
	NetDropRate float64

	// MaxRetries bounds the retries an initiator spends on a faulted bus
	// operation or DMA word before giving up (default 4).
	MaxRetries int
	// BackoffCycles is the base retry backoff; it doubles per attempt
	// (default 16).
	BackoffCycles uint64

	// StartCycle/EndCycle window the injections (EndCycle 0 = no end),
	// and AddrMin/AddrMax target them (both 0 = all addresses). Windowed
	// or targeted draws outside the plan's scope consume no randomness.
	StartCycle, EndCycle uint64
	AddrMin, AddrMax     mbus.Addr

	// Seed drives the plan's random streams (0: the machine seed).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.TimeoutHoldCycles == 0 {
		c.TimeoutHoldCycles = 8
	}
	if c.DMAStallCycles == 0 {
		c.DMAStallCycles = 50
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.BackoffCycles == 0 {
		c.BackoffCycles = 16
	}
	return c
}

// Validate checks rate ranges.
func (c Config) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("fault: %s %g outside [0,1]", name, v)
		}
		return nil
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"bus parity rate", c.BusParityRate},
		{"bus timeout rate", c.BusTimeoutRate},
		{"memory soft-error rate", c.MemSoftErrorRate},
		{"memory uncorrectable fraction", c.MemUncorrectableFraction},
		{"DMA NXM rate", c.DMANXMRate},
		{"DMA stall rate", c.DMAStallRate},
		{"tag parity rate", c.TagParityRate},
		{"net frame-drop rate", c.NetDropRate},
	} {
		if err := check(r.name, r.v); err != nil {
			return err
		}
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("fault: negative max retries %d", c.MaxRetries)
	}
	return nil
}

// Stats counts the plan's injections (recovery accounting lives with the
// recovering components).
type Stats struct {
	BusParity    stats.Counter
	BusTimeouts  stats.Counter
	MemSoft      stats.Counter // soft errors drawn (correctable + not)
	MemUncorrect stats.Counter
	DMANXM       stats.Counter
	DMAStalls    stats.Counter
	TagParity    stats.Counter
	NetDrops     stats.Counter
}

// Total returns the total injections.
func (s Stats) Total() uint64 {
	return s.BusParity.Value() + s.BusTimeouts.Value() + s.MemSoft.Value() +
		s.DMANXM.Value() + s.DMAStalls.Value() + s.TagParity.Value() +
		s.NetDrops.Value()
}

// Plan is a live injector built from a Config: one per machine, wired by
// machine.New into the bus, the storage array, every cache, and (by the
// caller) any DMA engines. Each subsystem draws from its own derived
// stream, so enabling one fault class does not perturb another's draws.
type Plan struct {
	cfg   Config
	clock *sim.Clock

	busRand *sim.Rand
	memRand *sim.Rand
	dmaRand *sim.Rand
	tagRand *sim.Rand
	netRand *sim.Rand

	stats Stats
}

// NewPlan builds a plan on the given clock (used for cycle windowing).
func NewPlan(cfg Config, clock *sim.Clock) *Plan {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	root := sim.NewRand(cfg.Seed*0x9e3779b97f4a7c15 + 0xf4a17)
	return &Plan{
		cfg:   cfg,
		clock: clock,
		// The net stream is split last, so plans predating it draw the
		// exact same bus/mem/dma/tag sequences as before.
		busRand: root.Split(),
		memRand: root.Split(),
		dmaRand: root.Split(),
		tagRand: root.Split(),
		netRand: root.Split(),
	}
}

// Config returns the plan's (defaulted) configuration.
func (p *Plan) Config() Config { return p.cfg }

// MaxRetries returns the retry bound recovering initiators should use.
func (p *Plan) MaxRetries() int { return p.cfg.MaxRetries }

// BackoffCycles returns the base retry backoff.
func (p *Plan) BackoffCycles() uint64 { return p.cfg.BackoffCycles }

// Stats returns a snapshot of the injection counters.
func (p *Plan) Stats() Stats { return p.stats }

// active reports whether the plan targets this cycle and address. An
// inactive consultation draws no randomness.
func (p *Plan) active(addr mbus.Addr) bool {
	now := uint64(p.clock.Now())
	if now < p.cfg.StartCycle {
		return false
	}
	if p.cfg.EndCycle != 0 && now > p.cfg.EndCycle {
		return false
	}
	if p.cfg.AddrMax != 0 && (addr < p.cfg.AddrMin || addr > p.cfg.AddrMax) {
		return false
	}
	return true
}

// OpFault implements mbus.FaultInjector.
func (p *Plan) OpFault(op mbus.OpKind, addr mbus.Addr) (mbus.FaultKind, uint64) {
	if !p.active(addr) {
		return mbus.FaultNone, 0
	}
	if p.busRand.Bool(p.cfg.BusParityRate) {
		p.stats.BusParity.Inc()
		return mbus.FaultParity, 0
	}
	if p.busRand.Bool(p.cfg.BusTimeoutRate) {
		p.stats.BusTimeouts.Inc()
		return mbus.FaultTimeout, p.cfg.TimeoutHoldCycles
	}
	return mbus.FaultNone, 0
}

// ReadFault implements memory.ECCModel.
func (p *Plan) ReadFault(addr mbus.Addr) (bool, bool) {
	if !p.active(addr) || !p.memRand.Bool(p.cfg.MemSoftErrorRate) {
		return false, false
	}
	p.stats.MemSoft.Inc()
	if p.memRand.Bool(p.cfg.MemUncorrectableFraction) {
		p.stats.MemUncorrect.Inc()
		return true, true
	}
	return true, false
}

// DMAWordFault implements qbus.DMAFaultInjector.
func (p *Plan) DMAWordFault(addr mbus.Addr) (nxm bool, stallCycles uint64) {
	if !p.active(addr) {
		return false, 0
	}
	if p.dmaRand.Bool(p.cfg.DMANXMRate) {
		p.stats.DMANXM.Inc()
		return true, 0
	}
	if p.dmaRand.Bool(p.cfg.DMAStallRate) {
		p.stats.DMAStalls.Inc()
		return false, p.cfg.DMAStallCycles
	}
	return false, 0
}

// TagFault implements core.TagFaultInjector.
func (p *Plan) TagFault(addr mbus.Addr) bool {
	if !p.active(addr) || !p.tagRand.Bool(p.cfg.TagParityRate) {
		return false
	}
	p.stats.TagParity.Inc()
	return true
}

// FrameDrop implements net.FaultInjector: consulted once per delivered
// Ethernet frame. Frames have no MBus address, so only the plan's cycle
// window applies.
func (p *Plan) FrameDrop() bool {
	now := uint64(p.clock.Now())
	if now < p.cfg.StartCycle || (p.cfg.EndCycle != 0 && now > p.cfg.EndCycle) {
		return false
	}
	if !p.netRand.Bool(p.cfg.NetDropRate) {
		return false
	}
	p.stats.NetDrops.Inc()
	return true
}

// NextEvent reports the earliest future cycle at which the plan itself
// will change machine state: never. The plan is purely reactive — every
// injection is drawn synchronously when an acting component consults it
// (a bus operation, a memory read, a DMA word, a cache hit, a delivered
// frame), so a machine with no component activity draws no faults, and
// bulk-advancing the clock over an idle window cannot skip one.
func (p *Plan) NextEvent(sim.Cycle) sim.Cycle { return sim.Never }

// RegisterStats names the plan's injection counters in a registry.
func (p *Plan) RegisterStats(r *stats.Registry) {
	r.RegisterCounter("fault.bus_parity", &p.stats.BusParity)
	r.RegisterCounter("fault.bus_timeouts", &p.stats.BusTimeouts)
	r.RegisterCounter("fault.mem_soft", &p.stats.MemSoft)
	r.RegisterCounter("fault.mem_uncorrectable", &p.stats.MemUncorrect)
	r.RegisterCounter("fault.dma_nxm", &p.stats.DMANXM)
	r.RegisterCounter("fault.dma_stalls", &p.stats.DMAStalls)
	r.RegisterCounter("fault.tag_parity", &p.stats.TagParity)
	r.RegisterCounter("fault.net_drops", &p.stats.NetDrops)
}

// ParseSpec parses the -faults command-line syntax: comma-separated
// key=value pairs. Keys: bus (parity rate), timeout (timeout rate), mem
// (soft-error rate), memunc (uncorrectable fraction), nxm, stall (DMA
// rates), tag (tag parity rate), drop (Ethernet frame-drop rate), all
// (sets bus/timeout/mem/nxm/stall/tag to one rate), retries, backoff,
// stallcycles, hold, start, end, seed, addrmin, addrmax. Example:
// "bus=1e-4,mem=1e-4,retries=4".
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("fault: %q is not key=value", field)
		}
		rate := func(dst ...*float64) error {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("fault: bad value in %q: %v", field, err)
			}
			for _, d := range dst {
				*d = f
			}
			return nil
		}
		count := func(dst *uint64) error {
			n, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return fmt.Errorf("fault: bad value in %q: %v", field, err)
			}
			*dst = n
			return nil
		}
		var err error
		switch strings.ToLower(key) {
		case "bus":
			err = rate(&cfg.BusParityRate)
		case "timeout":
			err = rate(&cfg.BusTimeoutRate)
		case "mem":
			err = rate(&cfg.MemSoftErrorRate)
		case "memunc":
			err = rate(&cfg.MemUncorrectableFraction)
		case "nxm":
			err = rate(&cfg.DMANXMRate)
		case "stall":
			err = rate(&cfg.DMAStallRate)
		case "tag":
			err = rate(&cfg.TagParityRate)
		case "drop":
			err = rate(&cfg.NetDropRate)
		case "all":
			err = rate(&cfg.BusParityRate, &cfg.BusTimeoutRate,
				&cfg.MemSoftErrorRate, &cfg.DMANXMRate,
				&cfg.DMAStallRate, &cfg.TagParityRate)
		case "retries":
			var n uint64
			if err = count(&n); err == nil {
				cfg.MaxRetries = int(n)
			}
		case "backoff":
			err = count(&cfg.BackoffCycles)
		case "stallcycles":
			err = count(&cfg.DMAStallCycles)
		case "hold":
			err = count(&cfg.TimeoutHoldCycles)
		case "start":
			err = count(&cfg.StartCycle)
		case "end":
			err = count(&cfg.EndCycle)
		case "seed":
			err = count(&cfg.Seed)
		case "addrmin":
			var n uint64
			if err = count(&n); err == nil {
				cfg.AddrMin = mbus.Addr(n)
			}
		case "addrmax":
			var n uint64
			if err = count(&n); err == nil {
				cfg.AddrMax = mbus.Addr(n)
			}
		default:
			return Config{}, fmt.Errorf("fault: unknown key %q", key)
		}
		if err != nil {
			return Config{}, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

var _ mbus.FaultInjector = (*Plan)(nil)
