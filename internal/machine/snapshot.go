package machine

import (
	"fmt"

	"firefly/internal/core"
	"firefly/internal/cpu"
	"firefly/internal/fault"
	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/sim"
)

// Snapshottable is an optional Device extension for devices that can
// capture and restore their mutable state (the QBus DMA engine, the
// disk and Ethernet controllers). SaveState returns an opaque deep copy
// or an error when the device is in a state it cannot serialize (e.g. a
// DMA transfer holding caller-owned buffers); RestoreState rewinds to a
// state previously returned by the same device type.
type Snapshottable interface {
	SaveState() (any, error)
	RestoreState(any) error
}

// Snapshot is a deterministic full-machine checkpoint: the clock, every
// RNG stream, CPUs (including their reference-source positions), cache
// tag/state/data stores, materialized memory pages, the bus, the fault
// plan, and every attached device, all as opaque deep copies. A
// snapshot restored into an identically built machine — same Config,
// same sources, same devices in the same order — continues bit-for-bit
// as the original would have, which is what lets fireflysim
// time-travel. Wiring (tracers, hooks) is not captured: a machine with
// tracing enabled emits events the snapshot knows nothing about.
type Snapshot struct {
	cycle   sim.Cycle
	bus     *mbus.BusState
	mem     *memory.SystemState
	caches  []*core.CacheState
	cpus    []*cpu.State
	plan    *fault.PlanState
	devices []any
}

// Cycle returns the machine cycle at which the snapshot was taken.
func (s *Snapshot) Cycle() sim.Cycle { return s.cycle }

// Snapshot captures the machine's complete mutable state. It fails when
// any component cannot serialize: a CPU whose source does not implement
// trace.Stateful, a hook-driven (kernel) processor, or a device that is
// mid-transfer or does not implement Snapshottable.
func (m *Machine) Snapshot() (*Snapshot, error) {
	s := &Snapshot{cycle: m.clock.Now()}
	var err error
	if s.bus, err = m.bus.SaveState(); err != nil {
		return nil, fmt.Errorf("machine: snapshot: %w", err)
	}
	s.mem = m.mem.SaveState()
	s.caches = make([]*core.CacheState, len(m.caches))
	for i, c := range m.caches {
		s.caches[i] = c.SaveState()
	}
	s.cpus = make([]*cpu.State, len(m.cpus))
	for i, p := range m.cpus {
		if s.cpus[i], err = p.SaveState(); err != nil {
			return nil, fmt.Errorf("machine: snapshot: %w", err)
		}
	}
	if m.plan != nil {
		s.plan = m.plan.SaveState()
	}
	s.devices = make([]any, len(m.devices))
	for i, d := range m.devices {
		sn, ok := d.(Snapshottable)
		if !ok {
			return nil, fmt.Errorf("machine: snapshot: device %d (%T) does not support snapshots", i, d)
		}
		if s.devices[i], err = sn.SaveState(); err != nil {
			return nil, fmt.Errorf("machine: snapshot: device %d: %w", i, err)
		}
	}
	return s, nil
}

// Restore rewinds the machine to a snapshot. The machine must be built
// identically to the one the snapshot was taken from: same Config, same
// sources attached, same devices in the same order, same fault plan
// presence. On success the machine's clock, components, and counters
// are exactly as they were at the snapshot cycle; a failed restore may
// leave the machine partially rewound and it must be discarded.
func (m *Machine) Restore(s *Snapshot) error {
	if len(s.cpus) != len(m.cpus) {
		return fmt.Errorf("machine: restore with %d processors into a machine with %d", len(s.cpus), len(m.cpus))
	}
	if len(s.devices) != len(m.devices) {
		return fmt.Errorf("machine: restore with %d devices into a machine with %d", len(s.devices), len(m.devices))
	}
	if (s.plan == nil) != (m.plan == nil) {
		return fmt.Errorf("machine: snapshot and machine disagree on having a fault plan")
	}
	if err := m.bus.RestoreState(s.bus); err != nil {
		return fmt.Errorf("machine: restore: %w", err)
	}
	if err := m.mem.RestoreState(s.mem); err != nil {
		return fmt.Errorf("machine: restore: %w", err)
	}
	for i, c := range m.caches {
		c.RestoreState(s.caches[i])
	}
	for i, p := range m.cpus {
		if err := p.RestoreState(s.cpus[i]); err != nil {
			return fmt.Errorf("machine: restore: %w", err)
		}
	}
	if m.plan != nil {
		m.plan.RestoreState(s.plan)
	}
	for i, d := range m.devices {
		sn, ok := d.(Snapshottable)
		if !ok {
			return fmt.Errorf("machine: restore: device %d (%T) does not support snapshots", i, d)
		}
		if err := sn.RestoreState(s.devices[i]); err != nil {
			return fmt.Errorf("machine: restore: device %d: %w", i, err)
		}
	}
	m.clock.Reset()
	m.clock.Advance(s.cycle)
	// Halted flags were restored directly; recount the running population
	// the halt hooks normally maintain.
	m.running = 0
	for _, p := range m.cpus {
		if !p.Halted() {
			m.running++
		}
	}
	return nil
}
