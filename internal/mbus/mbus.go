// Package mbus simulates the Firefly MBus: the dedicated memory bus over
// which per-processor caches and the storage modules communicate.
//
// The hardware MBus (paper §5, Figure 4) runs at 10 MHz and supports one
// four-byte transfer every 400 ns — four 100 ns cycles per operation:
//
//	cycle 1: arbitration; the winner places the address and operation
//	cycle 2: write data (MWrite); all other caches probe their tag stores
//	cycle 3: caches holding the line assert the wired-OR MShared signal
//	cycle 4: read data, supplied by the holding caches (memory inhibited)
//	         when MShared was asserted, by the storage modules otherwise
//
// The real bus has exactly two operations, MRead and MWrite. The simulated
// bus additionally carries MReadOwn, MUpdate, and MInv so that the
// invalidation- and ownership-based baseline protocols from the Archibald &
// Baer survey (which the paper contrasts the Firefly protocol against) can
// be evaluated over identical bus timing. Every operation, including the
// address-only MInv, occupies the full four cycles; this matches the
// fixed-length MBus transaction framing and keeps protocol comparisons on
// equal footing.
package mbus

import (
	"fmt"
	"math/bits"

	"firefly/internal/obs"
	"firefly/internal/sim"
)

// Addr is a physical byte address. The original Firefly had a 24-bit
// physical address space (16 MB); the CVAX version extends it to 27 bits
// (128 MB). Alignment to the 4-byte line is enforced by Line.
type Addr uint32

// Line returns the address of the 4-byte cache line containing a.
func (a Addr) Line() Addr { return a &^ 3 }

// String formats the address in hex.
func (a Addr) String() string { return fmt.Sprintf("%#07x", uint32(a)) }

// OpKind identifies a bus operation.
type OpKind uint8

const (
	// MRead fetches one 4-byte word. Other caches holding the word assert
	// MShared and supply the data in place of memory.
	MRead OpKind = iota
	// MWrite sends one 4-byte word to main memory. Other caches holding
	// the word take the data (update) and assert MShared. Used for victim
	// write-back and for the Firefly protocol's conditional write-through.
	MWrite
	// MReadOwn is a read with intent to modify: holders invalidate rather
	// than keep an updated copy. Not a real MBus operation; used by the
	// invalidation baselines (Berkeley, MESI).
	MReadOwn
	// MUpdate is a cache-to-cache update that does NOT write main memory,
	// as in the Xerox Dragon protocol. Not a real MBus operation.
	MUpdate
	// MInv is an address-only invalidation broadcast. Not a real MBus
	// operation; used by write-hit invalidations in the baselines.
	MInv

	numOpKinds = 5
)

// String returns the operation mnemonic.
func (k OpKind) String() string {
	switch k {
	case MRead:
		return "MRead"
	case MWrite:
		return "MWrite"
	case MReadOwn:
		return "MReadOwn"
	case MUpdate:
		return "MUpdate"
	case MInv:
		return "MInv"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// IsRead reports whether the operation returns data to the initiator.
func (k OpKind) IsRead() bool { return k == MRead || k == MReadOwn }

// CarriesData reports whether the initiator drives data in cycle 2.
func (k OpKind) CarriesData() bool { return k == MWrite || k == MUpdate }

// WritesMemory reports whether the storage modules absorb the data.
func (k OpKind) WritesMemory() bool { return k == MWrite }

// OpCycles is the length of every MBus operation in bus cycles.
const OpCycles = 4

// Request is a bus operation an initiator wants performed.
type Request struct {
	Op   OpKind
	Addr Addr
	Data uint32 // valid when Op.CarriesData()
	// Victim marks an MWrite that writes back an evicted dirty line rather
	// than serializing a new CPU store. The distinction is observational
	// only (it flows into the KindBusStore event): a victim's data must
	// equal the current coherent value, which the coherence oracle
	// cross-checks, while a write-through defines a new one.
	Victim bool
}

// FaultKind classifies a bus or storage fault delivered with a Result.
type FaultKind uint8

const (
	// FaultNone: the operation completed normally.
	FaultNone FaultKind = iota
	// FaultParity: an address or data parity error was detected on the
	// operation. The operation had no architectural effect.
	FaultParity
	// FaultTimeout: no slave responded and the bus watchdog expired. The
	// operation had no architectural effect and held the bus for the
	// watchdog window beyond its normal four cycles.
	FaultTimeout
	// FaultECC: the storage modules detected an uncorrectable error in
	// the read data. The operation ran normally on the bus (snoops and
	// all) but the delivered data is unusable; soft errors are transient,
	// so a retry re-reads the word.
	FaultECC
)

// String returns the fault name.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultParity:
		return "parity"
	case FaultTimeout:
		return "timeout"
	case FaultECC:
		return "ecc"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// Result is delivered to the initiator on the final cycle of its operation.
type Result struct {
	Op            OpKind
	Addr          Addr
	Data          uint32 // read data for IsRead ops
	Shared        bool   // MShared was asserted during cycle 3
	CacheSupplied bool   // a cache, not memory, supplied the read data
	// Fault, when not FaultNone, marks the operation as failed: Data is
	// invalid and (for FaultParity/FaultTimeout) the operation had no
	// architectural effect. The initiator decides whether to retry.
	Fault FaultKind
	Done  sim.Cycle
}

// Initiator is an agent that can request bus operations (a cache, or the
// DMA path of the I/O system).
type Initiator interface {
	// SetRequestLine hands the agent its request line when it is attached.
	// The agent keeps the line set exactly while it has a request raised
	// (including one waiting out a retry backoff): it sets the line when
	// it raises a request and clears it on grant or withdrawal. The bus
	// reads the published request word instead of polling every port.
	SetRequestLine(RequestLine)
	// BusRequest reports the operation the agent wants, if any. It is
	// called only for ports whose request line is set, during arbitration
	// cycles and by NextEvent; it must be side-effect-free, and the agent
	// must keep returning the same request until granted. A set line whose
	// BusRequest reports false is a request still backing off.
	BusRequest() (Request, bool)
	// BusGrant tells the agent its request has won arbitration.
	BusGrant()
	// BusComplete delivers the result on the operation's final cycle.
	BusComplete(Result)
}

// SnoopVerdict is a snooper's response to an address probe.
type SnoopVerdict struct {
	// HasLine reports whether the snooper holds the addressed line; it
	// drives the MShared signal.
	HasLine bool
	// Supply indicates the snooper will place read data on the bus during
	// cycle 4 (memory inhibited).
	Supply bool
	// Data is the supplied word (valid when Supply).
	Data uint32
	// MemWrite asks the storage modules to absorb the supplied data as it
	// passes on the bus ("reflection"). The Firefly and Berkeley protocols
	// never set it; MESI-style baselines use it when a modified line is
	// flushed in response to a snooped read.
	MemWrite bool
	// Flush writes additional words to memory when the operation
	// completes. A cache with multi-word lines uses it when a snoop
	// transitions a dirty line to a clean (or invalid) state: the whole
	// line's contents must reach memory, not just the snooped word. The
	// flush is not charged bus cycles — a modeling simplification for the
	// line-size ablation, documented in DESIGN.md.
	Flush []WordFlush
}

// WordFlush is one word written to memory as a side effect of a snoop.
type WordFlush struct {
	Addr Addr
	Data uint32
}

// Snooper watches the bus and participates in coherence. Every cache is a
// snooper; the probe in cycle 2 occupies the snooper's tag store for that
// cycle, which is the source of the paper's "tag store probes by other
// caches" (SP) slowdown term.
type Snooper interface {
	// SnoopProbe is called in cycle 2 of every operation initiated by
	// another agent.
	SnoopProbe(op OpKind, addr Addr, data uint32) SnoopVerdict
	// SnoopCommit is called in cycle 3 with the resolved MShared value so
	// the snooper can apply its protocol's state change (take update data,
	// invalidate, change ownership).
	SnoopCommit(op OpKind, addr Addr, data uint32, shared bool)
}

// Memory is the storage module array on the bus.
type Memory interface {
	// ReadWord returns the word at addr; ok is false for unpopulated
	// addresses.
	ReadWord(addr Addr) (data uint32, ok bool)
	// WriteWord stores the word at addr; ok is false for unpopulated
	// addresses.
	WriteWord(addr Addr, data uint32) (ok bool)
}

// ECCMemory is an optional Memory extension for storage with an
// error-detection model. The bus type-asserts for it at AttachMemory and,
// when present, routes operation reads through ReadWordECC so an
// uncorrectable storage error reaches the initiator as FaultECC.
type ECCMemory interface {
	Memory
	// ReadWordECC reads like ReadWord but additionally reports whether an
	// uncorrectable error corrupted the data (correctable errors are fixed
	// internally and never surface here).
	ReadWordECC(addr Addr) (data uint32, ok bool, uncorrectable bool)
}

// FaultInjector decides, per bus operation, whether an injected fault
// occurs. A nil injector (the default) is the fault-free machine; the
// consultation is a single interface call per operation, and an injector
// that always answers FaultNone is behaviourally identical to none.
type FaultInjector interface {
	// OpFault is consulted once when an operation wins arbitration. It
	// returns the fault to inject (FaultNone for a clean operation) and,
	// for FaultTimeout, the extra cycles the watchdog holds the bus.
	OpFault(op OpKind, addr Addr) (FaultKind, uint64)
}

// InterruptSink receives MBus interprocessor interrupts.
type InterruptSink interface {
	Interrupt(from int)
}

type port struct {
	initiator Initiator
	snooper   Snooper
	sink      InterruptSink
}

// portVerdict is one snooper's verdict on the operation in flight.
type portVerdict struct {
	port int
	SnoopVerdict
}

// RequestLine is one initiator's bit in its bus's published request word:
// the wire it asserts to ask for arbitration. The zero RequestLine (an
// agent not attached to any bus) ignores Set.
type RequestLine struct {
	word *uint64
	bit  uint64
}

// Set asserts (on) or releases the request line.
func (l RequestLine) Set(on bool) {
	if l.word == nil {
		return
	}
	if on {
		*l.word |= l.bit
	} else {
		*l.word &^= l.bit
	}
}

// Stats aggregates bus activity for load and traffic reporting.
type Stats struct {
	Ops        [numOpKinds]uint64 // completed operations by kind
	BusyCycles uint64             // cycles occupied by operations
	Cycles     uint64             // total cycles stepped
	SharedHits uint64             // ops during which MShared was asserted
	WaitCycles uint64             // requester-cycles spent waiting for grant
	PerPort    []uint64           // completed operations per initiating port
	// WaitPerPort splits WaitCycles by the waiting port: the per-port
	// arbitration losses that the fairness sweeps turn into wait-cycle
	// tails. Like WaitCycles it counts arbitration-conflict cycles (a
	// requester passed over while another port was granted), not cycles
	// spent behind a bus already busy.
	WaitPerPort []uint64
	// FaultedOps counts operations aborted by an injected parity error or
	// timeout; they occupy the bus but are not counted in Ops.
	FaultedOps uint64
	// DroppedInterrupts counts interprocessor interrupts discarded for an
	// out-of-range, self, or detached (no sink) target.
	DroppedInterrupts uint64
}

// TotalOps returns the number of completed operations.
func (s Stats) TotalOps() uint64 {
	var t uint64
	for _, n := range s.Ops {
		t += n
	}
	return t
}

// Load returns the fraction of bus cycles that were non-idle — the paper's
// bus load L.
func (s Stats) Load() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(s.Cycles)
}

// Bus is the MBus. It is stepped once per 100 ns cycle by the machine's
// run loop; it is not safe for concurrent use (the hardware wasn't either).
type Bus struct {
	clock *sim.Clock
	arb   Arbiter
	// arbFixed devirtualizes the default policy: when the arbiter is the
	// stateless fixed-priority singleton, arbitration grants the first
	// requester inline instead of through the interface, keeping the hot
	// loop at its pre-policy-layer cost.
	arbFixed bool
	ports    []port
	mem      Memory
	eccMem   ECCMemory // non-nil when mem implements ECCMemory
	inj      FaultInjector

	// in-flight operation
	active  bool
	phase   int // 1..4
	op      OpKind
	addr    Addr
	data    uint32
	victim  bool
	portNum int
	// snooped holds the verdicts of the in-flight operation that matter
	// (a holder, a supplier or a flush), in port order.
	snooped []portVerdict
	shared  bool
	// fault of the in-flight operation (FaultNone normally); holdLeft is
	// the remaining watchdog cycles of a timed-out operation.
	fault    FaultKind
	holdLeft uint64

	// reqWords is the published request word, 64 ports per word: bit i
	// of *reqWords[i/64] is port i's request line. Each word is its own
	// allocation so the lines handed out stay valid as ports attach.
	reqWords  []*uint64
	lastGrant int    // most recently granted port (-1 before any grant)
	ready     []int  // reused buffer: the ports requesting this arbitration
	reqs      []bool // reused request vector for interface arbiters

	stats Stats

	tracer *obs.Tracer
}

// New returns an empty bus on the given clock with the given arbitration
// policy (nil: the hardware's fixed priority). The bus adopts the
// arbiter — Reset is called here, and stateful arbiters must not be
// shared between buses.
func New(clock *sim.Clock, arb Arbiter) *Bus {
	if arb == nil {
		arb = NewFixedPriority()
	}
	arb.Reset()
	b := &Bus{clock: clock, arb: arb, lastGrant: -1}
	_, b.arbFixed = arb.(fixedPriority)
	return b
}

// Arbiter returns the bus's arbitration policy.
func (b *Bus) Arbiter() Arbiter { return b.arb }

// Clock returns the bus clock.
func (b *Bus) Clock() *sim.Clock { return b.clock }

// AttachMemory connects the storage module array. Storage implementing
// ECCMemory gets its error model consulted on every operation read.
func (b *Bus) AttachMemory(m Memory) {
	b.mem = m
	b.eccMem, _ = m.(ECCMemory)
}

// SetFaultInjector installs (or, with nil, removes) the per-operation
// fault injector.
func (b *Bus) SetFaultInjector(inj FaultInjector) { b.inj = inj }

// Attach adds an agent to the bus and returns its port number. Lower port
// numbers have higher fixed priority. Any of the three roles may be nil
// for agents that lack it (memory-side DMA engines do not snoop, pure
// snoopers never initiate).
func (b *Bus) Attach(in Initiator, sn Snooper, sink InterruptSink) int {
	i := len(b.ports)
	b.ports = append(b.ports, port{initiator: in, snooper: sn, sink: sink})
	b.stats.PerPort = append(b.stats.PerPort, 0)
	b.stats.WaitPerPort = append(b.stats.WaitPerPort, 0)
	if i%64 == 0 {
		b.reqWords = append(b.reqWords, new(uint64))
	}
	if in != nil {
		in.SetRequestLine(RequestLine{word: b.reqWords[i/64], bit: 1 << uint(i%64)})
	}
	return i
}

// Stats returns a snapshot of the accumulated bus statistics.
func (b *Bus) Stats() Stats {
	s := b.stats
	s.PerPort = append([]uint64(nil), b.stats.PerPort...)
	s.WaitPerPort = append([]uint64(nil), b.stats.WaitPerPort...)
	return s
}

// ResetStats clears the accumulated statistics (the clock is unaffected).
func (b *Bus) ResetStats() {
	per, wait := b.stats.PerPort, b.stats.WaitPerPort
	for i := range per {
		per[i] = 0
	}
	for i := range wait {
		wait[i] = 0
	}
	b.stats = Stats{PerPort: per, WaitPerPort: wait}
}

// SetTracer installs (or, with nil, removes) the observability tracer.
// The bus emits obs.KindBusGrant when arbitration is won, obs.KindBusShared
// when the wired-OR MShared line resolves asserted, and obs.KindBusOp when
// an operation completes — the three externally visible signals of the
// Figure 4 timing.
func (b *Bus) SetTracer(tr *obs.Tracer) { b.tracer = tr }

// Tracer returns the installed tracer (nil when tracing is disabled).
// Attached engines read it lazily so tracing enabled after attachment
// still covers them.
func (b *Bus) Tracer() *obs.Tracer { return b.tracer }

// Busy reports whether an operation is in flight.
func (b *Bus) Busy() bool { return b.active }

// InFlight returns the operation currently occupying the bus, if any.
// The invariant walker (internal/check) uses it to exclude the addressed
// line from cross-cache comparisons: between the commit cycle and the
// completion cycle the initiator and the snoopers legitimately disagree
// about that one line.
func (b *Bus) InFlight() (op OpKind, addr Addr, active bool) {
	return b.op, b.addr, b.active
}

// NextEvent reports the earliest future cycle at which stepping the bus
// may change observable state: the next cycle while an operation is in
// flight or any attached initiator is requesting service, sim.Never
// otherwise. It reads the published request word and asks only the ports
// whose line is set; BusRequest is side-effect-free by contract, so the
// probe does not perturb arbitration. Initiators whose raised request is
// temporarily invisible (retry backoff) report their own wake-up cycle
// through their own NextEvent — the bus cannot see them and does not try
// to.
func (b *Bus) NextEvent(now sim.Cycle) sim.Cycle {
	if b.active {
		return now + 1
	}
	for w, wp := range b.reqWords {
		for set := *wp; set != 0; set &= set - 1 {
			i := w<<6 | bits.TrailingZeros64(set)
			if _, ok := b.ports[i].initiator.BusRequest(); ok {
				return now + 1
			}
		}
	}
	return sim.Never
}

// SkipCycles accounts n cycles during which the caller has established
// the bus would only have idled: the cycle counter advances with no busy,
// wait, or operation accounting, exactly as n idle Steps would have left
// it. The caller is responsible for advancing the machine clock.
func (b *Bus) SkipCycles(n uint64) { b.stats.Cycles += n }

// Interrupt delivers an MBus interprocessor interrupt to the agent on the
// target port. Delivery is immediate; the hardware used dedicated bus
// facilities that did not contend with data transfers.
// A bad target — out of range, the sender itself, or a port with no
// interrupt sink — must not take the machine down mid-cycle: devices
// compute targets from software-writable registers, so the bus drops the
// interrupt and counts it instead of panicking.
func (b *Bus) Interrupt(from, target int) {
	if target < 0 || target >= len(b.ports) || target == from {
		b.stats.DroppedInterrupts++
		return
	}
	sink := b.ports[target].sink
	if sink == nil {
		b.stats.DroppedInterrupts++
		return
	}
	sink.Interrupt(from)
}

// Step advances the bus by one cycle. The machine's run loop must call
// Step exactly once per clock tick, before the caches, devices and
// processors: requests they raise in a cycle reach arbitration on the
// next one.
func (b *Bus) Step() {
	b.stats.Cycles++
	if !b.active {
		b.arbitrate()
		if !b.active {
			return
		}
		// Arbitration and address transmission share the first cycle.
	}
	b.stats.BusyCycles++
	if b.fault != FaultNone {
		// An injected parity error or timeout: the operation occupies the
		// bus but makes no architectural progress — no snoop probes, no
		// MShared resolution, no memory access. A timeout additionally
		// holds the bus for the watchdog window before the initiator sees
		// the error.
		if b.phase < OpCycles {
			b.phase++
			return
		}
		if b.holdLeft > 0 {
			b.holdLeft--
			return
		}
		b.completeFaulted()
		b.active = false
		return
	}
	switch b.phase {
	case 1:
		// Address and operation are on the bus; nothing else happens.
	case 2:
		b.probeAll()
	case 3:
		b.resolveShared()
	case 4:
		b.complete()
		b.active = false
		return
	}
	b.phase++
}

func (b *Bus) arbitrate() {
	// Gather the requesting ports from the published request word. A set
	// line whose BusRequest reports false is backing off and sits this
	// arbitration out. BusRequest is side-effect-free by contract, so
	// re-reading the winner's request below observes the same request.
	ready := b.ready[:0]
	for w, wp := range b.reqWords {
		for set := *wp; set != 0; set &= set - 1 {
			i := w<<6 | bits.TrailingZeros64(set)
			if _, ok := b.ports[i].initiator.BusRequest(); ok {
				ready = append(ready, i)
			}
		}
	}
	b.ready = ready
	nreq := len(ready)
	if nreq == 0 {
		return
	}
	// Fixed priority grants the lowest requesting port: ready is in port
	// order.
	granted := ready[0]
	if !b.arbFixed {
		n := len(b.ports)
		if len(b.reqs) < n {
			b.reqs = make([]bool, n)
		}
		for _, i := range ready {
			b.reqs[i] = true
		}
		granted = b.arb.Grant(b.reqs[:n], b.lastGrant)
		ok := granted >= 0 && granted < n && b.reqs[granted]
		for _, i := range ready {
			b.reqs[i] = false
		}
		if !ok {
			panic(fmt.Sprintf("mbus: arbiter %q granted port %d, which is not requesting", b.arb.Name(), granted))
		}
	}
	if nreq > 1 {
		var mask uint64
		for _, i := range ready {
			if i == granted {
				continue
			}
			b.stats.WaitCycles++
			b.stats.WaitPerPort[i]++
			if i < 64 {
				mask |= 1 << uint(i)
			}
		}
		if b.tracer != nil {
			b.tracer.Emit(obs.Event{
				Cycle: uint64(b.clock.Now()),
				Kind:  obs.KindBusArb,
				Unit:  int32(granted),
				A:     uint64(nreq),
				B:     mask,
				Label: b.arb.Name(),
			})
		}
	}
	req, _ := b.ports[granted].initiator.BusRequest()
	b.lastGrant = granted
	b.begin(granted, req)
}

func (b *Bus) begin(port int, req Request) {
	b.active = true
	b.phase = 1
	b.op = req.Op
	b.addr = req.Addr.Line()
	b.data = req.Data
	b.victim = req.Victim
	b.portNum = port
	b.shared = false
	b.fault = FaultNone
	b.holdLeft = 0
	if b.inj != nil {
		b.fault, b.holdLeft = b.inj.OpFault(b.op, b.addr)
	}
	b.snooped = b.snooped[:0]
	if b.tracer != nil {
		b.tracer.Emit(obs.Event{
			Cycle: uint64(b.clock.Now()),
			Kind:  obs.KindBusGrant,
			Unit:  int32(port),
			Addr:  uint32(b.addr),
			A:     uint64(b.op),
			Label: b.op.String(),
		})
	}
	b.ports[port].initiator.BusGrant()
}

func (b *Bus) probeAll() {
	var data uint32
	if b.op.CarriesData() {
		data = b.data
	}
	for i := range b.ports {
		if i == b.portNum {
			continue
		}
		sn := b.ports[i].snooper
		if sn == nil {
			continue
		}
		v := sn.SnoopProbe(b.op, b.addr, data)
		if v.HasLine || v.Supply || len(v.Flush) > 0 {
			b.snooped = append(b.snooped, portVerdict{port: i, SnoopVerdict: v})
		}
	}
}

func (b *Bus) resolveShared() {
	for i := range b.snooped {
		if b.snooped[i].HasLine {
			b.shared = true
			break
		}
	}
	if b.shared {
		b.stats.SharedHits++
		if b.tracer != nil {
			b.tracer.Emit(obs.Event{
				Cycle: uint64(b.clock.Now()),
				Kind:  obs.KindBusShared,
				Unit:  int32(b.portNum),
				Addr:  uint32(b.addr),
				A:     uint64(b.op),
				Label: b.op.String(),
			})
		}
	}
	var data uint32
	if b.op.CarriesData() {
		data = b.data
	}
	for i := range b.snooped {
		if v := &b.snooped[i]; v.HasLine {
			b.ports[v.port].snooper.SnoopCommit(b.op, b.addr, data, b.shared)
		}
	}
	if b.tracer != nil && b.op.CarriesData() {
		// Cycle 3 is the serialization point of a data-carrying operation:
		// snooping caches have just committed the value, so from this cycle
		// on every agent observes the new word. The coherence oracle keys
		// its reference-memory update off this event.
		var victim uint64
		if b.victim {
			victim = 1
		}
		b.tracer.Emit(obs.Event{
			Cycle: uint64(b.clock.Now()),
			Kind:  obs.KindBusStore,
			Unit:  int32(b.portNum),
			Addr:  uint32(b.addr),
			A:     uint64(b.data),
			B:     victim,
			Label: b.op.String(),
		})
	}
}

func (b *Bus) complete() {
	res := Result{
		Op:     b.op,
		Addr:   b.addr,
		Shared: b.shared,
		Done:   b.clock.Now(),
	}
	// Snoop-side flushes land before the operation's own memory effect so
	// the operation's data (the newest value) wins on overlap.
	if b.mem != nil {
		for i := range b.snooped {
			for _, f := range b.snooped[i].Flush {
				b.mem.WriteWord(f.Addr, f.Data)
			}
		}
	}
	if b.op.IsRead() {
		supplied := false
		reflect := false
		var word uint32
		for i := range b.snooped {
			v := &b.snooped[i]
			if !v.Supply {
				continue
			}
			if supplied && v.Data != word {
				// The protocol guarantees all supplying caches hold
				// identical values ("More than one cache may supply read
				// data, but since the protocol ensures coherence, the
				// values will be identical", §5.1). Divergence is a
				// protocol implementation bug, so fail loudly.
				panic(fmt.Sprintf("mbus: incoherent supply at %v: %#x vs %#x", b.addr, word, v.Data))
			}
			supplied = true
			word = v.Data
			reflect = reflect || v.MemWrite
		}
		if supplied {
			res.Data = word
			res.CacheSupplied = true
			if reflect && b.mem != nil {
				b.mem.WriteWord(b.addr, word)
			}
		} else if b.eccMem != nil {
			if w, ok, bad := b.eccMem.ReadWordECC(b.addr); ok {
				if bad {
					// An uncorrectable storage error: the operation ran
					// normally on the bus, but the data is unusable. The
					// error is transient, so the initiator's retry re-reads
					// a clean word.
					res.Fault = FaultECC
				} else {
					res.Data = w
				}
			}
		} else if b.mem != nil {
			if w, ok := b.mem.ReadWord(b.addr); ok {
				res.Data = w
			}
		}
	}
	if b.op.WritesMemory() && b.mem != nil {
		b.mem.WriteWord(b.addr, b.data)
	}
	b.stats.Ops[b.op]++
	b.stats.PerPort[b.portNum]++
	if b.tracer != nil {
		var shared uint64
		if b.shared {
			shared = 1
		}
		b.tracer.Emit(obs.Event{
			Cycle: uint64(b.clock.Now()),
			Kind:  obs.KindBusOp,
			Unit:  int32(b.portNum),
			Addr:  uint32(b.addr),
			A:     uint64(b.op),
			B:     shared,
			Label: b.op.String(),
		})
	}
	b.ports[b.portNum].initiator.BusComplete(res)
}

// completeFaulted delivers an injected-fault result. The operation is not
// counted in Ops (it never completed) but its bus occupancy was charged.
func (b *Bus) completeFaulted() {
	b.stats.FaultedOps++
	if b.tracer != nil {
		b.tracer.Emit(obs.Event{
			Cycle: uint64(b.clock.Now()),
			Kind:  obs.KindFaultBusOp,
			Unit:  int32(b.portNum),
			Addr:  uint32(b.addr),
			A:     uint64(b.op),
			B:     uint64(b.fault),
			Label: b.fault.String(),
		})
	}
	res := Result{
		Op:    b.op,
		Addr:  b.addr,
		Fault: b.fault,
		Done:  b.clock.Now(),
	}
	b.fault = FaultNone
	b.ports[b.portNum].initiator.BusComplete(res)
}
