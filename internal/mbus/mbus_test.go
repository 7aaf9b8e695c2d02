package mbus

import (
	"testing"

	"firefly/internal/obs"
	"firefly/internal/sim"
)

// testInitiator is a scripted bus agent for driving transactions.
type testInitiator struct {
	pending *Request
	granted int
	results []Result
	line    RequestLine
}

func (ti *testInitiator) SetRequestLine(l RequestLine) { ti.line = l }

func (ti *testInitiator) BusRequest() (Request, bool) {
	if ti.pending == nil {
		return Request{}, false
	}
	return *ti.pending, true
}

func (ti *testInitiator) BusGrant() {
	ti.granted++
	ti.pending = nil
	ti.line.Set(false)
}

func (ti *testInitiator) BusComplete(r Result) { ti.results = append(ti.results, r) }

func (ti *testInitiator) issue(op OpKind, addr Addr, data uint32) {
	ti.pending = &Request{Op: op, Addr: addr, Data: data}
	ti.line.Set(true)
}

// testSnooper asserts MShared (and optionally supplies data) for a fixed
// set of lines and records probes/commits.
type testSnooper struct {
	lines    map[Addr]uint32
	supply   bool
	probes   []Addr
	commits  []Addr
	updates  map[Addr]uint32
	shared   []bool
	probeOps []OpKind
}

func newTestSnooper(supply bool) *testSnooper {
	return &testSnooper{
		lines:   make(map[Addr]uint32),
		updates: make(map[Addr]uint32),
		supply:  supply,
	}
}

func (ts *testSnooper) SnoopProbe(op OpKind, addr Addr, data uint32) SnoopVerdict {
	ts.probes = append(ts.probes, addr)
	ts.probeOps = append(ts.probeOps, op)
	d, has := ts.lines[addr]
	return SnoopVerdict{HasLine: has, Supply: has && ts.supply && op.IsRead(), Data: d}
}

func (ts *testSnooper) SnoopCommit(op OpKind, addr Addr, data uint32, shared bool) {
	ts.commits = append(ts.commits, addr)
	ts.shared = append(ts.shared, shared)
	if op.CarriesData() {
		ts.updates[addr] = data
	}
}

// flatMemory is a trivial mbus.Memory for tests.
type flatMemory struct {
	words  map[Addr]uint32
	reads  int
	writes int
}

func newFlatMemory() *flatMemory { return &flatMemory{words: make(map[Addr]uint32)} }

func (m *flatMemory) ReadWord(a Addr) (uint32, bool) {
	m.reads++
	return m.words[a.Line()], true
}

func (m *flatMemory) WriteWord(a Addr, d uint32) bool {
	m.writes++
	m.words[a.Line()] = d
	return true
}

func newTestBus() (*Bus, *sim.Clock, *flatMemory) {
	clock := &sim.Clock{}
	b := New(clock, NewFixedPriority())
	mem := newFlatMemory()
	b.AttachMemory(mem)
	return b, clock, mem
}

func run(b *Bus, clock *sim.Clock, cycles int) {
	for i := 0; i < cycles; i++ {
		clock.Tick()
		b.Step()
	}
}

func TestAddrLine(t *testing.T) {
	for _, tc := range []struct{ in, want Addr }{
		{0, 0}, {1, 0}, {3, 0}, {4, 4}, {0x1007, 0x1004},
	} {
		if got := tc.in.Line(); got != tc.want {
			t.Errorf("Line(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestOpKindPredicates(t *testing.T) {
	if !MRead.IsRead() || !MReadOwn.IsRead() || MWrite.IsRead() {
		t.Fatal("IsRead wrong")
	}
	if !MWrite.CarriesData() || !MUpdate.CarriesData() || MInv.CarriesData() {
		t.Fatal("CarriesData wrong")
	}
	if !MWrite.WritesMemory() || MUpdate.WritesMemory() || MInv.WritesMemory() {
		t.Fatal("WritesMemory wrong")
	}
	for k := OpKind(0); k < numOpKinds; k++ {
		if k.String() == "" {
			t.Fatalf("missing mnemonic for op %d", k)
		}
	}
}

// TestFigure4MReadTiming verifies the paper's Figure 4: an MRead occupies
// exactly four cycles — arbitration+address, tag probe, MShared, data —
// and the bus emits the grant and completion events that render Figure 4.
func TestFigure4MReadTiming(t *testing.T) {
	b, clock, mem := newTestBus()
	mem.words[0x100] = 0xabcd
	init := &testInitiator{}
	snoop := newTestSnooper(true)
	b.Attach(init, nil, nil)
	b.Attach(nil, snoop, nil)
	ring := obs.NewRing(16)
	b.SetTracer(obs.NewTracer(ring))

	init.issue(MRead, 0x100, 0)
	run(b, clock, 4)

	if len(init.results) != 1 {
		t.Fatalf("op did not complete in 4 cycles: %d results", len(init.results))
	}
	r := init.results[0]
	if r.Data != 0xabcd || r.Shared || r.CacheSupplied {
		t.Fatalf("result = %+v", r)
	}
	if r.Done != 4 {
		t.Fatalf("completed at cycle %d, want 4", r.Done)
	}
	events := ring.Events()
	if len(events) != 2 {
		t.Fatalf("trace has %d events, want grant+completion: %+v", len(events), events)
	}
	grant, done := events[0], events[1]
	if grant.Kind != obs.KindBusGrant || grant.Cycle != 1 || grant.Label != "MRead" {
		t.Fatalf("grant event = %+v", grant)
	}
	// Completion lands on cycle 4; phases 2-4 are the three cycles after
	// the grant, so the whole operation spans exactly four cycles.
	if done.Kind != obs.KindBusOp || done.Cycle != 4 || done.Cycle-grant.Cycle != 3 {
		t.Fatalf("completion event = %+v", done)
	}
	// The line was nowhere cached, so MShared never fired and no
	// obs.KindBusShared event was emitted.
	if done.B != 0 {
		t.Fatalf("completion reports MShared: %+v", done)
	}
	// The tag probe happens in cycle 2, not earlier.
	if len(snoop.probes) != 1 {
		t.Fatalf("snooper probed %d times", len(snoop.probes))
	}
}

// TestBusSharedEvent verifies obs.KindBusShared fires in cycle 3 when a
// snooper holds the line.
func TestBusSharedEvent(t *testing.T) {
	b, clock, mem := newTestBus()
	mem.words[0x100] = 0xabcd
	init := &testInitiator{}
	snoop := newTestSnooper(true)
	snoop.lines[0x100] = 0x1111
	b.Attach(init, nil, nil)
	b.Attach(nil, snoop, nil)
	ring := obs.NewRing(16)
	b.SetTracer(obs.NewTracer(ring))

	init.issue(MRead, 0x100, 0)
	run(b, clock, 4)

	events := ring.Events()
	if len(events) != 3 {
		t.Fatalf("trace has %d events, want grant+shared+completion: %+v", len(events), events)
	}
	sh := events[1]
	if sh.Kind != obs.KindBusShared || sh.Cycle != 3 || sh.Addr != 0x100 {
		t.Fatalf("shared event = %+v", sh)
	}
	if done := events[2]; done.B != 1 {
		t.Fatalf("completion does not report MShared: %+v", done)
	}
}

// TestFigure4BackToBack verifies the 400 ns per-transfer rate: two queued
// operations finish in exactly 8 cycles.
func TestFigure4BackToBack(t *testing.T) {
	b, clock, _ := newTestBus()
	a := &testInitiator{}
	b.Attach(a, nil, nil)
	a.issue(MWrite, 0x10, 1)
	run(b, clock, 4)
	a.issue(MWrite, 0x14, 2)
	run(b, clock, 4)
	if len(a.results) != 2 {
		t.Fatalf("completed %d ops in 8 cycles, want 2", len(a.results))
	}
	if a.results[1].Done != 8 {
		t.Fatalf("second op done at %d, want 8", a.results[1].Done)
	}
	st := b.Stats()
	if st.BusyCycles != 8 || st.TotalOps() != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Load() != 1.0 {
		t.Fatalf("load = %v, want 1.0", st.Load())
	}
}

func TestMSharedAssertionAndCacheSupply(t *testing.T) {
	b, clock, mem := newTestBus()
	mem.words[0x200] = 0x1111 // stale in memory
	init := &testInitiator{}
	s1 := newTestSnooper(true)
	s1.lines[0x200] = 0x2222 // cache's copy differs (e.g. dirty elsewhere)
	b.Attach(init, nil, nil)
	b.Attach(nil, s1, nil)

	init.issue(MRead, 0x200, 0)
	run(b, clock, 4)

	r := init.results[0]
	if !r.Shared || !r.CacheSupplied || r.Data != 0x2222 {
		t.Fatalf("result = %+v, want shared cache-supplied 0x2222", r)
	}
	// Memory must have been inhibited.
	if mem.reads != 0 {
		t.Fatalf("memory read %d times despite cache supply", mem.reads)
	}
}

func TestMultipleIdenticalSuppliersOK(t *testing.T) {
	b, clock, _ := newTestBus()
	init := &testInitiator{}
	s1 := newTestSnooper(true)
	s2 := newTestSnooper(true)
	s1.lines[0x40] = 7
	s2.lines[0x40] = 7
	b.Attach(init, nil, nil)
	b.Attach(nil, s1, nil)
	b.Attach(nil, s2, nil)
	init.issue(MRead, 0x40, 0)
	run(b, clock, 4)
	if init.results[0].Data != 7 || !init.results[0].CacheSupplied {
		t.Fatalf("result = %+v", init.results[0])
	}
}

func TestIncoherentSupplyPanics(t *testing.T) {
	b, clock, _ := newTestBus()
	init := &testInitiator{}
	s1 := newTestSnooper(true)
	s2 := newTestSnooper(true)
	s1.lines[0x40] = 7
	s2.lines[0x40] = 8 // incoherent!
	b.Attach(init, nil, nil)
	b.Attach(nil, s1, nil)
	b.Attach(nil, s2, nil)
	init.issue(MRead, 0x40, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("divergent suppliers did not panic")
		}
	}()
	run(b, clock, 4)
}

func TestMWriteUpdatesMemoryAndSnoopers(t *testing.T) {
	b, clock, mem := newTestBus()
	init := &testInitiator{}
	holder := newTestSnooper(false)
	holder.lines[0x300] = 5
	bystander := newTestSnooper(false)
	b.Attach(init, nil, nil)
	b.Attach(nil, holder, nil)
	b.Attach(nil, bystander, nil)

	init.issue(MWrite, 0x300, 99)
	run(b, clock, 4)

	if mem.words[0x300] != 99 {
		t.Fatalf("memory = %d, want 99", mem.words[0x300])
	}
	if holder.updates[0x300] != 99 {
		t.Fatalf("holder update = %d, want 99", holder.updates[0x300])
	}
	if len(bystander.commits) != 0 {
		t.Fatal("non-holding snooper received a commit")
	}
	if !init.results[0].Shared {
		t.Fatal("MShared not reported to the writer")
	}
}

func TestMUpdateDoesNotWriteMemory(t *testing.T) {
	b, clock, mem := newTestBus()
	init := &testInitiator{}
	holder := newTestSnooper(false)
	holder.lines[0x80] = 1
	b.Attach(init, nil, nil)
	b.Attach(nil, holder, nil)
	init.issue(MUpdate, 0x80, 42)
	run(b, clock, 4)
	if mem.writes != 0 {
		t.Fatal("MUpdate wrote main memory (Dragon semantics violated)")
	}
	if holder.updates[0x80] != 42 {
		t.Fatalf("holder not updated: %v", holder.updates)
	}
}

func TestFixedPriorityArbitration(t *testing.T) {
	b, clock, _ := newTestBus()
	hi := &testInitiator{}
	lo := &testInitiator{}
	b.Attach(hi, nil, nil) // port 0: higher priority
	b.Attach(lo, nil, nil)
	hi.issue(MRead, 0x0, 0)
	lo.issue(MRead, 0x4, 0)
	run(b, clock, 4)
	if len(hi.results) != 1 || len(lo.results) != 0 {
		t.Fatalf("priority violated: hi=%d lo=%d", len(hi.results), len(lo.results))
	}
	run(b, clock, 4)
	if len(lo.results) != 1 {
		t.Fatal("low-priority agent starved after high went idle")
	}
	st := b.Stats()
	if st.WaitCycles == 0 {
		t.Fatal("no wait cycles recorded for losing requester")
	}
	if st.PerPort[0] != 1 || st.PerPort[1] != 1 {
		t.Fatalf("per-port ops = %v", st.PerPort)
	}
}

func TestRoundRobinArbitration(t *testing.T) {
	clock := &sim.Clock{}
	b := New(clock, NewRoundRobin())
	b.AttachMemory(newFlatMemory())
	a0 := &testInitiator{}
	a1 := &testInitiator{}
	b.Attach(a0, nil, nil)
	b.Attach(a1, nil, nil)
	// Both always want the bus; under round-robin they should alternate.
	for i := 0; i < 4; i++ {
		a0.issue(MRead, 0x0, 0)
		a1.issue(MRead, 0x4, 0)
		run(b, clock, 4)
	}
	if len(a0.results) != 2 || len(a1.results) != 2 {
		t.Fatalf("round robin unfair: a0=%d a1=%d", len(a0.results), len(a1.results))
	}
}

func TestIdleBusAccumulatesNoBusy(t *testing.T) {
	b, clock, _ := newTestBus()
	b.Attach(&testInitiator{}, nil, nil)
	run(b, clock, 10)
	st := b.Stats()
	if st.BusyCycles != 0 || st.Cycles != 10 || st.Load() != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInitiatorDoesNotSnoopItself(t *testing.T) {
	clock := &sim.Clock{}
	b := New(clock, NewFixedPriority())
	b.AttachMemory(newFlatMemory())
	// An agent that both initiates and snoops (like a real cache).
	init := &testInitiator{}
	self := newTestSnooper(true)
	self.lines[0x10] = 123
	b.Attach(init, self, nil)
	init.issue(MRead, 0x10, 0)
	run(b, clock, 4)
	if len(self.probes) != 0 {
		t.Fatal("initiator's own snooper was probed")
	}
	if init.results[0].Shared {
		t.Fatal("initiator's own copy asserted MShared")
	}
}

func TestMReadOwnProbesHolders(t *testing.T) {
	b, clock, _ := newTestBus()
	init := &testInitiator{}
	holder := newTestSnooper(false)
	holder.lines[0x500] = 3
	b.Attach(init, nil, nil)
	b.Attach(nil, holder, nil)
	init.issue(MReadOwn, 0x500, 0)
	run(b, clock, 4)
	if len(holder.commits) != 1 {
		t.Fatal("holder did not get commit for MReadOwn")
	}
	if !init.results[0].Shared {
		t.Fatal("MReadOwn did not observe MShared")
	}
}

func TestInterruptDelivery(t *testing.T) {
	b, _, _ := newTestBus()
	got := -1
	sink := interruptFunc(func(from int) { got = from })
	b.Attach(&testInitiator{}, nil, nil)
	b.Attach(nil, nil, sink)
	b.Interrupt(0, 1)
	if got != 0 {
		t.Fatalf("interrupt from = %d, want 0", got)
	}
}

type interruptFunc func(int)

func (f interruptFunc) Interrupt(from int) { f(from) }

func TestInterruptHardening(t *testing.T) {
	// Out-of-range, self-targeted, and sink-less interrupts must not
	// panic the bus (a confused device register write on real hardware
	// cannot crash the backplane): each is dropped and counted.
	b, _, _ := newTestBus()
	got := 0
	sink := interruptFunc(func(int) { got++ })
	b.Attach(&testInitiator{}, nil, sink) // port 0: has a sink
	b.Attach(&testInitiator{}, nil, nil)  // port 1: no sink
	for _, target := range []int{-1, 2, 99, 0 /* self */} {
		b.Interrupt(0, target)
	}
	b.Interrupt(0, 1) // valid port, but detached (nil sink)
	if got != 0 {
		t.Fatalf("dropped interrupts were delivered: %d", got)
	}
	if d := b.Stats().DroppedInterrupts; d != 5 {
		t.Fatalf("dropped interrupts = %d, want 5", d)
	}
	// A valid delivery still works and is not counted as dropped.
	b.Attach(nil, nil, sink) // port 2
	b.Interrupt(0, 2)
	if got != 1 {
		t.Fatalf("valid interrupt not delivered")
	}
	if d := b.Stats().DroppedInterrupts; d != 5 {
		t.Fatalf("valid interrupt counted as dropped: %d", d)
	}
}

func TestResetStats(t *testing.T) {
	b, clock, _ := newTestBus()
	a := &testInitiator{}
	b.Attach(a, nil, nil)
	a.issue(MWrite, 0, 1)
	run(b, clock, 4)
	b.ResetStats()
	st := b.Stats()
	if st.TotalOps() != 0 || st.Cycles != 0 || st.PerPort[0] != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestSnoopFlushWritesMemory(t *testing.T) {
	// A snooper's Flush words reach memory when the operation completes,
	// before the operation's own memory effect.
	b, clock, mem := newTestBus()
	init := &testInitiator{}
	fl := &flushingSnooper{}
	b.Attach(init, nil, nil)
	b.Attach(nil, fl, nil)
	init.issue(MRead, 0x100, 0)
	run(b, clock, 4)
	if mem.words[0x100] != 11 || mem.words[0x104] != 12 {
		t.Fatalf("flush missed memory: %#v", mem.words)
	}
	// The supplied read data still came from the snooper.
	if init.results[0].Data != 11 || !init.results[0].CacheSupplied {
		t.Fatalf("result = %+v", init.results[0])
	}
}

// flushingSnooper supplies a word and flushes a two-word line.
type flushingSnooper struct{}

func (f *flushingSnooper) SnoopProbe(op OpKind, addr Addr, data uint32) SnoopVerdict {
	return SnoopVerdict{
		HasLine: true,
		Supply:  true,
		Data:    11,
		Flush: []WordFlush{
			{Addr: 0x100, Data: 11},
			{Addr: 0x104, Data: 12},
		},
	}
}

func (f *flushingSnooper) SnoopCommit(op OpKind, addr Addr, data uint32, shared bool) {}

func TestUnalignedRequestUsesLine(t *testing.T) {
	b, clock, mem := newTestBus()
	a := &testInitiator{}
	b.Attach(a, nil, nil)
	a.issue(MWrite, 0x103, 9) // unaligned
	run(b, clock, 4)
	if mem.words[0x100] != 9 {
		t.Fatalf("write landed at wrong line: %v", mem.words)
	}
	if a.results[0].Addr != 0x100 {
		t.Fatalf("result addr = %v, want line address", a.results[0].Addr)
	}
}
