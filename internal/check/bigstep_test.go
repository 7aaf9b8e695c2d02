package check

import (
	"fmt"
	"testing"

	"firefly/internal/coherence"
	"firefly/internal/cpu"
	"firefly/internal/fault"
	"firefly/internal/machine"
	"firefly/internal/obs"
	"firefly/internal/qbus"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// traceHash folds every observability event into an order-sensitive
// FNV-1a digest, so two runs produce the same hash only if they emit
// the same events with the same fields in the same order.
type traceHash struct {
	h uint64
	n uint64
}

func newTraceHash() *traceHash { return &traceHash{h: 14695981039346656037} }

func (th *traceHash) fold(v uint64) {
	for i := 0; i < 8; i++ {
		th.h ^= v & 0xff
		th.h *= 1099511628211
		v >>= 8
	}
}

func (th *traceHash) Observe(ev obs.Event) {
	th.n++
	th.fold(ev.Cycle)
	th.fold(uint64(ev.Kind))
	th.fold(uint64(uint32(ev.Unit)))
	th.fold(uint64(ev.Addr))
	th.fold(ev.A)
	th.fold(ev.B)
	for i := 0; i < len(ev.Label); i++ {
		th.h ^= uint64(ev.Label[i])
		th.h *= 1099511628211
	}
}

// bigstepRig is one machine under the big-step differential: synthetic
// load, a correctable fault plan, the QBus DMA engine and disk, the
// coherence oracle, and a trace hash over every emitted event.
type bigstepRig struct {
	m       *machine.Machine
	disk    *qbus.Disk
	engine  *qbus.Engine
	hash    *traceHash
	checker *Checker
}

// correctableFaults is the rigs' fault plan: correctable classes only.
// Parity errors and timeouts are retried, soft memory errors corrected,
// DMA stalls waited out. The retry backoff windows are exactly the
// windows the event scan must get right (a backed-off requester is
// invisible to the bus), so the rates are set high enough that every
// driveBigstep run faults several bus operations: a plan that never
// fires leaves those windows untested.
var correctableFaults = fault.Config{
	BusParityRate:    2e-3,
	BusTimeoutRate:   1e-3,
	MemSoftErrorRate: 2e-3,
	DMAStallRate:     2e-3,
}

func newBigstepRig(t *testing.T, protoName string, seed uint64) *bigstepRig {
	return newFaultRig(t, protoName, seed, correctableFaults)
}

func newFaultRig(t *testing.T, protoName string, seed uint64, faults fault.Config) *bigstepRig {
	t.Helper()
	proto, ok := ProtocolByName(protoName)
	if !ok {
		t.Fatalf("unknown protocol %q", protoName)
	}
	m := machine.New(machine.Config{
		Processors: 3,
		Variant:    cpu.MicroVAX78032(),
		Protocol:   proto,
		CacheLines: 256,
		LineWords:  2,
		Seed:       seed,
		Faults:     &faults,
	})
	rig := &bigstepRig{m: m, hash: newTraceHash()}
	var err error
	rig.checker, err = Attach(m)
	if err != nil {
		t.Fatal(err)
	}
	m.Trace(rig.hash)
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05})
	maps := &qbus.MapRegisters{}
	maps.MapRange(0, 0x40000, 1<<15)
	rig.engine = qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
	pl := m.Faults()
	rig.engine.SetFaultPolicy(pl, pl.MaxRetries(), pl.BackoffCycles())
	rig.disk = qbus.NewDisk(m.Clock(), m.Bus(), rig.engine, qbus.DiskConfig{SeekCycles: 20_000})
	m.AddDevice(rig.engine)
	m.AddDevice(rig.disk)
	return rig
}

// driveBigstep runs the rig through the schedule that exercises every
// stepping regime: loaded processors (hot path), a halted phase with
// disk DMA draining (seek skips, word pacing, stall and backoff
// windows), a resume, and a fully quiescent tail.
func driveBigstep(rig *bigstepRig, step func(uint64)) {
	m := rig.m
	np := m.Config().Processors
	step(12_000)
	for i := 0; i < np; i++ {
		m.CPU(i).Halt()
	}
	rig.disk.Read(3, 0, nil)
	rig.disk.Write(5, 0x800, nil)
	step(90_000)
	for i := 0; i < np; i++ {
		m.CPU(i).Resume()
	}
	step(8_000)
	for i := 0; i < np; i++ {
		m.CPU(i).Halt()
	}
	step(30_000)
}

// TestBigStepDifferential drives identical machines through the same
// schedule, once through Run (which bulk-skips every provably dead
// window) and once stepped cycle-by-cycle, for all five protocols with
// fault injection live. It demands byte-identical reports, identical
// trace event streams (count and order-sensitive hash), identical
// device counters, and a green coherence oracle on both machines.
func TestBigStepDifferential(t *testing.T) {
	for _, proto := range coherence.All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 11} {
				fast := newBigstepRig(t, proto.Name(), seed)
				slow := newBigstepRig(t, proto.Name(), seed)
				driveBigstep(fast, func(n uint64) { fast.m.Run(n) })
				driveBigstep(slow, func(n uint64) {
					for i := uint64(0); i < n; i++ {
						slow.m.Step()
					}
				})

				if fc, sc := fast.m.Clock().Now(), slow.m.Clock().Now(); fc != sc {
					t.Fatalf("seed %d: clock diverged: big-step %d, stepped %d", seed, fc, sc)
				}
				if fast.hash.n != slow.hash.n || fast.hash.h != slow.hash.h {
					t.Errorf("seed %d: trace streams diverged: big-step %d events (%#x), stepped %d events (%#x)",
						seed, fast.hash.n, fast.hash.h, slow.hash.n, slow.hash.h)
				}
				if fr, sr := fmt.Sprint(fast.m.Report()), fmt.Sprint(slow.m.Report()); fr != sr {
					t.Errorf("seed %d: reports diverged\n--- big-step ---\n%s\n--- stepped ---\n%s", seed, fr, sr)
				}
				fd := fmt.Sprintf("%+v %+v", fast.disk.Stats(), fast.engine.Stats())
				sd := fmt.Sprintf("%+v %+v", slow.disk.Stats(), slow.engine.Stats())
				if fd != sd {
					t.Errorf("seed %d: device counters diverged\n--- big-step ---\n%s\n--- stepped ---\n%s", seed, fd, sd)
				}
				for name, rig := range map[string]*bigstepRig{"big-step": fast, "stepped": slow} {
					rig.checker.Walk()
					for _, v := range rig.checker.Violations() {
						t.Errorf("seed %d: %s: oracle violation: %v", seed, name, v)
					}
				}
			}
		})
	}
}

// stepN advances the rig's machine n cycles through the per-cycle
// reference path.
func (rig *bigstepRig) stepN(n uint64) {
	for i := uint64(0); i < n; i++ {
		rig.m.Step()
	}
}

// compareRigs fails the test unless the two rigs agree on the clock, the
// whole statistics registry and the trace stream so far.
func compareRigs(t *testing.T, what string, fast, slow *bigstepRig) {
	t.Helper()
	if fc, sc := fast.m.Clock().Now(), slow.m.Clock().Now(); fc != sc {
		t.Fatalf("%s: clock diverged: %d vs %d", what, fc, sc)
	}
	if fr, sr := fast.m.Registry().String(), slow.m.Registry().String(); fr != sr {
		t.Fatalf("%s: registries diverged at cycle %d\n--- run ---\n%s\n--- stepped ---\n%s",
			what, fast.m.Clock().Now(), fr, sr)
	}
	if fast.hash.n != slow.hash.n || fast.hash.h != slow.hash.h {
		t.Fatalf("%s: trace streams diverged at cycle %d: %d events (%#x) vs %d events (%#x)",
			what, fast.m.Clock().Now(), fast.hash.n, fast.hash.h, slow.hash.n, slow.hash.h)
	}
}

// TestBigStepWarmupDifferential covers the measurement window boundary
// on loaded machines: Warmup runs through Run and then resets every
// counter, so the reset lands while processors sit in the middle of a
// compute chunk or a stall whose ticks are not yet credited. Those ticks
// belong to the warm-up; the measured window must match a machine
// stepped cycle by cycle and reset at the same cycle, for all five
// protocols with the fault plan live.
func TestBigStepWarmupDifferential(t *testing.T) {
	for _, proto := range coherence.All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 11} {
				fast := newBigstepRig(t, proto.Name(), seed)
				slow := newBigstepRig(t, proto.Name(), seed)
				fast.m.Warmup(7_777)
				slow.stepN(7_777)
				slow.m.ResetStats()
				compareRigs(t, fmt.Sprintf("seed %d after warmup", seed), fast, slow)
				for _, n := range []uint64{5_001, 20_000, 3} {
					fast.m.Run(n)
					slow.stepN(n)
					compareRigs(t, fmt.Sprintf("seed %d after Run(%d)", seed, n), fast, slow)
				}
				fast.m.ResetStats()
				slow.m.ResetStats()
				fast.m.Run(9_999)
				slow.stepN(9_999)
				compareRigs(t, fmt.Sprintf("seed %d after a second reset", seed), fast, slow)
			}
		})
	}
}

// TestStepRunInterleaveDifferential switches one loaded machine between
// the per-cycle reference (Step) and the event loop (Run(k)) at random
// split points and compares it with a machine that only steps, checking
// the registry and trace stream after every call. A processor's wake and
// its uncredited ticks must survive every hand-over in both directions:
// a Step landing on the cycle a stalled access completes, a Run starting
// mid compute chunk, a Step taken while the processor is asleep. All
// five protocols run with the fault plan live and the DMA disk busy.
func TestStepRunInterleaveDifferential(t *testing.T) {
	for _, proto := range coherence.All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 11} {
				mixed := newBigstepRig(t, proto.Name(), seed)
				ref := newBigstepRig(t, proto.Name(), seed)
				for _, rig := range []*bigstepRig{mixed, ref} {
					rig.disk.Read(3, 0, nil)
					rig.disk.Write(5, 0x800, nil)
				}
				rng := sim.NewRand(seed)
				for call := 0; mixed.m.Clock().Now() < 40_000; call++ {
					var n uint64
					if rng.Bool(0.5) {
						n = 1
						mixed.m.Step()
					} else {
						n = 1 + rng.Uint64()%600
						mixed.m.Run(n)
					}
					ref.stepN(n)
					compareRigs(t, fmt.Sprintf("seed %d call %d", seed, call), mixed, ref)
				}
			}
		})
	}
}

// TestBusRequestSideEffectFree pins the mbus.Initiator contract that
// BusRequest and Bus.NextEvent are pure: a machine whose bus and every
// initiator are asked one extra time on each cycle — including through
// the retry backoff windows a dense fault plan opens — must emit the
// same trace stream and report as an unobserved one.
func TestBusRequestSideEffectFree(t *testing.T) {
	dense := correctableFaults
	dense.BusParityRate, dense.BusTimeoutRate = 1e-2, 5e-3
	for _, proto := range coherence.All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			t.Parallel()
			polled := newFaultRig(t, proto.Name(), 3, dense)
			plain := newFaultRig(t, proto.Name(), 3, dense)
			for _, rig := range []*bigstepRig{polled, plain} {
				// A long memory-to-device DMA puts the engine on the bus
				// (and into its backoff windows) from the first cycle.
				rig.engine.Submit(&qbus.Transfer{Device: "poll", QAddr: 0x1000, Words: 2048, Data: make([]uint32, 2048)})
			}
			for i := 0; i < 40_000; i++ {
				polled.m.Bus().NextEvent(polled.m.Clock().Now())
				for _, c := range polled.m.Caches() {
					c.BusRequest()
				}
				polled.engine.BusRequest()
				polled.m.Step()
				plain.m.Step()
			}
			compareRigs(t, "extra polling", polled, plain)
			if fr, sr := fmt.Sprint(polled.m.Report()), fmt.Sprint(plain.m.Report()); fr != sr {
				t.Fatalf("reports diverged\n--- polled ---\n%s\n--- plain ---\n%s", fr, sr)
			}
			var retries uint64
			for i := range polled.m.Caches() {
				retries += polled.m.Registry().MustValue(fmt.Sprintf("cache%d.retries", i))
			}
			if retries == 0 || polled.engine.Stats().Retries.Value() == 0 {
				t.Fatalf("no backoff window exercised: cache retries %d, DMA retries %d",
					retries, polled.engine.Stats().Retries.Value())
			}
		})
	}
}
