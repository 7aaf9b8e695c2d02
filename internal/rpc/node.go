package rpc

import (
	"fmt"

	"firefly/internal/machine"
	"firefly/internal/mbus"
	"firefly/internal/obs"
	"firefly/internal/qbus"
	"firefly/internal/sim"
	"firefly/internal/stats"
	"firefly/internal/topaz"
)

// This file is the runtime half of the package: where transport.go
// computes the §6 pipeline analytically, Node actually carries calls
// over a simulated machine — marshalled bytes are DMA'd out of host
// memory by the DEQNA, serialized on the shared Ethernet segment
// (internal/net), DMA'd into the server's memory, reassembled in
// fragment order, dispatched onto Topaz worker threads, and answered
// with ID-matched replies. The client retransmits unanswered calls with
// exponential backoff and the server deduplicates by call ID, so the
// transport delivers each call exactly once even over a lossy wire.

// Wire format: each Ethernet frame is a 5-longword transport header
// followed by a fragment of the marshalled Message, bytes packed
// big-endian four to a longword.
//
//	w0  destination station (low 16) | source station (high 16)
//	w1  call ID
//	w2  message kind (high 8) | fragment count (bits 12-23) | index (low 12)
//	w3  fragment byte length
//	w4  total marshalled message bytes
const (
	frameHeaderWords = 5
	// MinFrameWords is the smallest well-formed transport frame: the
	// header alone. The cluster gives it to the Ethernet segments as
	// net.Config.MinFrameWords, which bounds how soon a freshly sent
	// frame can finish serializing and so sizes the windows over which
	// member machines may run ahead of the wire.
	MinFrameWords = frameHeaderWords
	// FragDataBytes is the largest fragment of message bytes per frame:
	// with the transport header it fills the DEQNA's 1516-byte frame.
	FragDataBytes = 1480
	maxFrags      = 1 << 12
)

// packWords packs bytes big-endian, four per longword, zero-padded.
func packWords(b []byte) []uint32 {
	words := make([]uint32, (len(b)+3)/4)
	for i, c := range b {
		words[i/4] |= uint32(c) << (24 - 8*uint(i%4))
	}
	return words
}

// unpackBytes reverses packWords for the first n bytes.
func unpackBytes(words []uint32, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(words[i/4] >> (24 - 8*uint(i%4)))
	}
	return b
}

// PackFrames splits a marshalled message into wire frames.
func PackFrames(dst, src int, id uint32, kind MsgKind, buf []byte) [][]uint32 {
	count := (len(buf) + FragDataBytes - 1) / FragDataBytes
	if count == 0 {
		count = 1
	}
	if count >= maxFrags {
		panic(fmt.Sprintf("rpc: message of %d bytes needs %d fragments", len(buf), count))
	}
	frames := make([][]uint32, 0, count)
	for i := 0; i < count; i++ {
		lo := i * FragDataBytes
		hi := lo + FragDataBytes
		if hi > len(buf) {
			hi = len(buf)
		}
		chunk := buf[lo:hi]
		frame := make([]uint32, 0, frameHeaderWords+(len(chunk)+3)/4)
		frame = append(frame,
			uint32(dst&0xffff)|uint32(src&0xffff)<<16,
			id,
			uint32(kind)<<24|uint32(count)<<12|uint32(i),
			uint32(len(chunk)),
			uint32(len(buf)),
		)
		frame = append(frame, packWords(chunk)...)
		frames = append(frames, frame)
	}
	return frames
}

// FrameDst extracts the destination station from a frame (the cluster's
// medium adapter routes on it, like a DEQNA matching the MAC address).
func FrameDst(words []uint32) int {
	if len(words) == 0 {
		return -1
	}
	return int(words[0] & 0xffff)
}

// frag is one parsed wire frame.
type frag struct {
	src, dst     int
	id           uint32
	kind         MsgKind
	index, count int
	total        int
	data         []byte
}

// parseFrag validates and decodes a frame. Malformed frames error; they
// must never panic (the wire is untrusted).
func parseFrag(words []uint32) (frag, error) {
	if len(words) < frameHeaderWords {
		return frag{}, fmt.Errorf("rpc: short frame (%d words)", len(words))
	}
	f := frag{
		dst:   int(words[0] & 0xffff),
		src:   int(words[0] >> 16),
		id:    words[1],
		kind:  MsgKind(words[2] >> 24),
		count: int(words[2] >> 12 & 0xfff),
		index: int(words[2] & 0xfff),
		total: int(words[4]),
	}
	n := int(words[3])
	switch {
	case f.count < 1:
		return frag{}, fmt.Errorf("rpc: frame with zero fragment count")
	case f.index >= f.count:
		return frag{}, fmt.Errorf("rpc: fragment %d of %d", f.index, f.count)
	case n > FragDataBytes:
		return frag{}, fmt.Errorf("rpc: fragment of %d bytes exceeds %d", n, FragDataBytes)
	case f.total > headerBytes+MaxPayload:
		return frag{}, fmt.Errorf("rpc: message of %d bytes exceeds maximum", f.total)
	case len(words) != frameHeaderWords+(n+3)/4:
		return frag{}, fmt.Errorf("rpc: frame length %d does not match %d data bytes",
			len(words), n)
	}
	f.data = unpackBytes(words[frameHeaderWords:], n)
	return f, nil
}

// NodeConfig tunes one machine's RPC runtime.
type NodeConfig struct {
	// Costs carries the transport's stage costs; the runtime charges the
	// same client and server cycles that Config.Bound sums, so the
	// cycle-level cluster and the bound stay mutually calibrated (the
	// differential test holds the cluster within 15% below it).
	Costs Config
	// Workers is the server worker-thread pool size (default 4).
	Workers int
	// PollCycles is the poll interval of caller and worker threads
	// waiting for work (default 128).
	PollCycles uint64
	// DispatchInstr is the slice of each stage executed as real
	// instructions against the thread's working set — producing genuine
	// cache and bus traffic — rather than as a calibrated timer sleep
	// (default 16). Its nominal cost is deducted from the sleep.
	DispatchInstr uint64
	// RetransmitCycles is the base client retransmission timeout
	// (default 250_000 = 25 ms); it doubles per attempt.
	RetransmitCycles uint64
	// MaxRetransmits bounds retransmissions before a call fails
	// (default 8).
	MaxRetransmits int
	// ReplyBytes is the server's reply payload size (default 16).
	ReplyBytes int
	// BufferBase is the physical base of the NIC buffer region
	// (default 0xE00000, above every Topaz address space).
	BufferBase mbus.Addr
	// QWindow is the QBus address of the mapped buffer window
	// (default 0x200000).
	QWindow uint32
	// Slots is the number of 2 KB NIC buffer slots, split evenly between
	// transmit and receive rings (default 64).
	Slots int
	// MaxQueue bounds the server dispatch queue — admission control. A
	// call arriving with the queue at its bound is shed: answered
	// immediately from the receive path with a rejection reply
	// (Proc=ShedProc) instead of being queued, so an overloaded server's
	// latency stays bounded instead of collapsing under an ever-growing
	// backlog. 0 (the default) queues without bound.
	MaxQueue int
	// ProcService charges extra server worker cycles per request
	// procedure number, on top of the payload-derived cost — this is how
	// the traffic engine gives its request classes (file read, compile
	// job, display burst) distinct service demands on one server.
	ProcService map[uint16]uint64
	// Kernel tunes the node's Topaz kernel (zero: defaults with the
	// machine's seed).
	Kernel topaz.Config
}

func (c NodeConfig) withDefaults(seed uint64) NodeConfig {
	c.Costs = c.Costs.withDefaults()
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.PollCycles == 0 {
		c.PollCycles = 128
	}
	if c.DispatchInstr == 0 {
		c.DispatchInstr = 16
	}
	if c.RetransmitCycles == 0 {
		c.RetransmitCycles = 250_000
	}
	if c.MaxRetransmits == 0 {
		c.MaxRetransmits = 8
	}
	if c.ReplyBytes == 0 {
		c.ReplyBytes = 16
	}
	if c.BufferBase == 0 {
		c.BufferBase = 0xE00000
	}
	if c.QWindow == 0 {
		c.QWindow = 0x200000
	}
	if c.Slots == 0 {
		c.Slots = 64
	}
	if c.Kernel.Seed == 0 {
		c.Kernel.Seed = seed
	}
	if c.Kernel.Quantum == 0 {
		c.Kernel.Quantum = 2000
	}
	if c.Kernel.SwitchCost == 0 {
		// Mirror the kernel's own default so the stage calibration below
		// can price context switches.
		c.Kernel.SwitchCost = 50
	}
	if c.Kernel.Dispatch == nil {
		c.Kernel.Dispatch = topaz.MigrationAverse{}
	}
	return c
}

// NodeStats counts runtime activity. Client and server counters are
// both present; a node may play either or both roles.
type NodeStats struct {
	CallsIssued    stats.Counter
	CallsCompleted stats.Counter
	CallsFailed    stats.Counter // retransmit budget exhausted
	Retransmits    stats.Counter
	BytesMoved     stats.Counter // payload bytes of completed calls
	ShedReplies    stats.Counter // calls answered with a rejection (client side)

	CallsReceived stats.Counter // distinct calls accepted by the server
	Served        stats.Counter // replies sent (excluding dedup re-sends)
	CallsShed     stats.Counter // calls rejected by admission control (MaxQueue)
	ServiceCycles stats.Counter // worker cycles spent in service (utilization numerator)
	DupCalls      stats.Counter // duplicate calls absorbed by ID dedup
	DupReplies    stats.Counter // duplicate/stale replies at the client

	FragDrops   stats.Counter // fragments discarded (out of order, stale)
	BadFrames   stats.Counter // frames that failed transport parsing
	BadMessages stats.Counter // reassembled messages that failed Unmarshal
	BadPayload  stats.Counter // payload contents that failed verification
	RxOverruns  stats.Counter // receive DMA aborts (frame lost in the NIC)
	Misrouted   stats.Counter // frames addressed to another station
}

// DefaultProc is the remote procedure number used by the built-in caller
// threads and generators when the caller does not care.
const DefaultProc uint16 = 7

// ShedProc is the reply procedure number that marks a rejection: the
// server's admission control answered the call without serving it.
const ShedProc uint16 = 0xffff

// CallOutcome is delivered to a call's completion callback: exactly one
// of the normal, shed, or failed dispositions.
type CallOutcome struct {
	ID      uint32
	Latency sim.Cycle // issue to disposition, in cycles
	Bytes   int       // request payload bytes
	Shed    bool      // the server rejected the call (admission control)
	Failed  bool      // the retransmit budget ran out with no reply
}

// call is one outstanding client call.
type call struct {
	id       uint32
	dst      int
	proc     uint16
	frames   [][]uint32
	bytes    int // payload bytes
	started  sim.Cycle
	deadline sim.Cycle
	attempts int
	openLoop bool
	done     bool
	failed   bool
	shed     bool
	latency  sim.Cycle
	onDone   func(CallOutcome)
}

// svc is one server-side call record (also the dedup entry).
type svc struct {
	src         int
	msg         *Message
	replyFrames [][]uint32 // cached for duplicate re-send; nil while in service
}

// reasm accumulates in-order fragments of one message.
type reasm struct {
	data  []byte
	next  int
	count int
	total int
}

// Node is the RPC runtime of one Firefly in a cluster: the DEQNA and its
// DMA engine, a Topaz kernel, the client transport (callers, timers,
// retransmission) and the server transport (reassembly, dedup, worker
// dispatch). It is stepped once per machine cycle as a machine device.
type Node struct {
	station int
	m       *machine.Machine
	k       *topaz.Kernel
	clock   *sim.Clock
	cfg     NodeConfig

	maps   *qbus.MapRegisters
	engine *qbus.Engine
	eth    *qbus.Ethernet

	cliMu  *topaz.Mutex // the client station: serializes marshal + finish
	connMu *topaz.Mutex // the server station: serializes per-connection work

	nextID       uint32
	calls        []*call
	byID         map[uint32]*call
	nextDeadline sim.Cycle

	txSlot, rxSlot int

	srvQueue  []*svc
	dedup     map[uint64]*svc
	reasms    map[uint64]*reasm
	queuePeak int

	stats   NodeStats
	latSum  uint64
	latHist stats.LogHist
}

// NewNode builds the runtime on a machine, as the given station. It
// creates the node's QBus DMA engine, DEQNA, and Topaz kernel, registers
// them as machine devices, and maps the NIC buffer rings.
func NewNode(m *machine.Machine, station int, cfg NodeConfig) *Node {
	cfg = cfg.withDefaults(m.Config().Seed)
	n := &Node{
		station: station,
		m:       m,
		clock:   m.Clock(),
		cfg:     cfg,
		maps:    &qbus.MapRegisters{},
		byID:    make(map[uint32]*call),
		dedup:   make(map[uint64]*svc),
		reasms:  make(map[uint64]*reasm),
	}
	if uint64(cfg.BufferBase)+uint64(cfg.Slots)*slotBytes > m.Memory().Bytes() {
		panic("rpc: NIC buffer region exceeds physical memory")
	}
	n.engine = qbus.NewEngine(n.clock, m.Bus(), n.maps, 0)
	n.eth = qbus.NewEthernet(n.clock, m.Bus(), n.engine, qbus.EthernetConfig{})
	n.maps.MapRange(cfg.QWindow, cfg.BufferBase, uint32(cfg.Slots)*slotBytes)
	m.AddDevice(n.engine)
	m.AddDevice(n.eth)
	m.AddDevice(n)
	n.k = topaz.NewKernel(m, cfg.Kernel)
	n.cliMu = n.k.NewMutex("rpc-client")
	n.connMu = n.k.NewMutex("rpc-conn")
	if plan := m.Faults(); plan != nil {
		n.engine.SetFaultPolicy(plan, plan.MaxRetries(), plan.BackoffCycles())
	}
	n.registerStats()
	return n
}

const slotBytes = 2048

// Machine returns the underlying machine.
func (n *Node) Machine() *machine.Machine { return n.m }

// Kernel returns the node's Topaz kernel.
func (n *Node) Kernel() *topaz.Kernel { return n.k }

// Ethernet returns the node's DEQNA, for attachment to a shared medium.
func (n *Node) Ethernet() *qbus.Ethernet { return n.eth }

// Station returns the node's station number.
func (n *Node) Station() int { return n.station }

// Stats returns a snapshot of the runtime counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Outstanding returns the number of client calls awaiting replies.
func (n *Node) Outstanding() int { return len(n.byID) }

// QueuePeak returns the deepest server backlog seen so far.
func (n *Node) QueuePeak() int { return n.queuePeak }

// MeanLatencyUS returns the mean completed-call latency in microseconds.
func (n *Node) MeanLatencyUS() float64 {
	c := n.stats.CallsCompleted.Value()
	if c == 0 {
		return 0
	}
	return float64(n.latSum) / float64(c) * (sim.CycleNS / 1000.0)
}

// Latencies returns the node's completed-call latency histogram
// (cycles). Merge the histograms of several members for fleet-wide
// percentiles; CyclesToUS converts the bounds.
func (n *Node) Latencies() *stats.LogHist { return &n.latHist }

// CyclesToUS converts a cycle count (histogram bounds, latencies) to
// microseconds.
func CyclesToUS(c uint64) float64 { return float64(c) * sim.CycleNS / 1000.0 }

// MergeLatencies merges the latency histograms of several nodes into one
// fleet-wide distribution.
func MergeLatencies(nodes ...*Node) *stats.LogHist {
	var h stats.LogHist
	for _, n := range nodes {
		h.Merge(&n.latHist)
	}
	return &h
}

// registerStats names the runtime counters in the machine registry.
func (n *Node) registerStats() {
	r := n.m.Registry()
	r.RegisterCounter("rpc.calls_issued", &n.stats.CallsIssued)
	r.RegisterCounter("rpc.calls_completed", &n.stats.CallsCompleted)
	r.RegisterCounter("rpc.calls_failed", &n.stats.CallsFailed)
	r.RegisterCounter("rpc.retransmits", &n.stats.Retransmits)
	r.RegisterCounter("rpc.bytes_moved", &n.stats.BytesMoved)
	r.RegisterCounter("rpc.shed_replies", &n.stats.ShedReplies)
	r.RegisterCounter("rpc.calls_received", &n.stats.CallsReceived)
	r.RegisterCounter("rpc.served", &n.stats.Served)
	r.RegisterCounter("rpc.calls_shed", &n.stats.CallsShed)
	r.RegisterCounter("rpc.service_cycles", &n.stats.ServiceCycles)
	r.RegisterCounter("rpc.dup_calls", &n.stats.DupCalls)
	r.RegisterCounter("rpc.dup_replies", &n.stats.DupReplies)
	r.RegisterCounter("rpc.frag_drops", &n.stats.FragDrops)
	r.RegisterCounter("rpc.bad_frames", &n.stats.BadFrames)
	r.RegisterCounter("rpc.bad_messages", &n.stats.BadMessages)
	r.RegisterCounter("rpc.bad_payload", &n.stats.BadPayload)
	r.RegisterCounter("rpc.rx_overruns", &n.stats.RxOverruns)
	r.RegisterCounter("rpc.misrouted", &n.stats.Misrouted)
}

// emit sends an event to the machine's tracer, if one is installed.
func (n *Node) emit(kind obs.Kind, a, b uint64) {
	tr := n.m.Tracer()
	if tr == nil {
		return
	}
	tr.Emit(obs.Event{
		Cycle: uint64(n.clock.Now()),
		Kind:  kind,
		Unit:  int32(n.station),
		A:     a,
		B:     b,
	})
}

// nominalInstrCycles is the expected cost of the real-instruction slice,
// deducted from the calibrated sleeps so stage totals match Costs.
func (n *Node) nominalInstrCycles() uint64 {
	v := n.m.Config().Variant
	return uint64(float64(n.cfg.DispatchInstr) * v.BaseTPI * float64(v.TickCycles))
}

// switchCycles prices one context switch (SwitchCost kernel instructions
// at the variant's nominal rate).
func (n *Node) switchCycles() uint64 {
	v := n.m.Config().Variant
	return uint64(float64(n.cfg.Kernel.SwitchCost) * v.BaseTPI * float64(v.TickCycles))
}

// wireWords is the total frame words a marshalled message of msgBytes
// occupies across its fragments.
func wireWords(msgBytes int) int {
	frags := (msgBytes + FragDataBytes - 1) / FragDataBytes
	if frags == 0 {
		frags = 1
	}
	return frags*frameHeaderWords + (msgBytes+3)/4
}

// The calibrated sleeps deduct the real costs the runtime pays anyway —
// the instruction slice, the transmit DMA, the wake-up context switches,
// and the mean polling delay — so a stage's observed cost matches its
// analytic Costs value instead of double-counting. The analytic numbers
// come from the paper's measured RPC, which includes all of that.

// clientOverheadCycles estimates the client-side per-call costs paid in
// kind: the call's transmit DMA, the two wake-ups (post-marshal sleep
// and reply poll), and half a poll interval of reply-detection delay.
func (n *Node) clientOverheadCycles(payloadBytes int) uint64 {
	dma := uint64(wireWords(headerBytes+payloadBytes)) * qbus.DefaultWordCycles
	return dma + 2*n.switchCycles() + n.cfg.PollCycles/2
}

// serverOverheadCycles estimates the server-side equivalents: the
// dispatch-queue poll and the two worker wake-ups (arrival and
// post-service sleep).
func (n *Node) serverOverheadCycles() uint64 {
	return 2*n.switchCycles() + n.cfg.PollCycles/2
}

// sleepCycles floors a calibrated stage remainder at one cycle.
func sleepCycles(total, deduct uint64) uint64 {
	if total <= deduct {
		return 1
	}
	return total - deduct
}

// perByteCycles converts a centi-cycle-per-byte rate.
func perByteCycles(centi uint64, bytes int) uint64 {
	return centi * uint64(bytes) / 100
}

// clientCycles is the client station's per-call cost (stub, marshal,
// buffer handoff) for the given payload, minus the instruction slice.
func (n *Node) clientCycles(payloadBytes int) uint64 {
	c := n.cfg.Costs
	return sleepCycles(c.ClientFixedCycles+perByteCycles(c.ClientPerByteCentiCycles, payloadBytes),
		n.nominalInstrCycles()+n.clientOverheadCycles(payloadBytes))
}

// serverCycles is the server station's per-call cost (receive interrupt,
// unmarshal, procedure, reply marshal) minus the instruction slice.
func (n *Node) serverCycles(payloadBytes int) uint64 {
	c := n.cfg.Costs
	return sleepCycles(c.ServerFixedCycles+perByteCycles(c.ServerPerByteCentiCycles, payloadBytes),
		n.nominalInstrCycles()+n.serverOverheadCycles())
}

// slotAddr returns the physical and QBus addresses of slot i.
func (n *Node) slotAddr(i int) (mbus.Addr, uint32) {
	off := uint32(i) * slotBytes
	return n.cfg.BufferBase + mbus.Addr(off), n.cfg.QWindow + off
}

// nextTx rotates through the transmit half of the buffer ring.
func (n *Node) nextTx() int {
	i := n.txSlot
	n.txSlot = (n.txSlot + 1) % (n.cfg.Slots / 2)
	return i
}

// nextRx rotates through the receive half.
func (n *Node) nextRx() int {
	i := n.rxSlot
	n.rxSlot = (n.rxSlot + 1) % (n.cfg.Slots / 2)
	return n.cfg.Slots/2 + i
}

// transmitFrames pokes each frame into a transmit slot and queues the
// DEQNA send. The DMA engine then fetches the bytes back out of memory
// and the medium serializes them — the payload genuinely crosses the
// machine boundary as words.
func (n *Node) transmitFrames(frames [][]uint32) {
	for _, words := range frames {
		slot := n.nextTx()
		phys, qaddr := n.slotAddr(slot)
		for i, w := range words {
			n.m.Memory().Poke(phys+mbus.Addr(i*4), w)
		}
		n.eth.Transmit(qaddr, len(words), nil)
	}
}

// callPayload builds the deterministic payload pattern for a call, which
// the server verifies byte-for-byte after the wire crossing.
func callPayload(id uint32, bytes int) []byte {
	p := make([]byte, bytes)
	for i := range p {
		p[i] = byte((i + int(id)) * 31)
	}
	return p
}

// Issue submits one call directly, without a caller thread: the traffic
// engine's load-balancer path. The call is accounted open-loop (its
// completion lands in the node's counters and latency histogram when the
// reply arrives) and onDone, if non-nil, fires exactly once at the
// call's disposition — reply, shed rejection, or retransmit-budget
// failure. It returns the call ID.
func (n *Node) Issue(dst, payloadBytes int, proc uint16, onDone func(CallOutcome)) uint32 {
	if payloadBytes == 0 {
		payloadBytes = n.cfg.Costs.PayloadBytes
	}
	c := n.issue(dst, payloadBytes, proc, true, onDone)
	return c.id
}

// issue marshals and transmits one call. Caller threads run it inside
// the client station; the open-loop generator and Issue run it directly.
func (n *Node) issue(dst, payloadBytes int, proc uint16, openLoop bool, onDone func(CallOutcome)) *call {
	n.nextID++
	id := n.nextID
	msg := &Message{Kind: Call, ID: id, Proc: proc, Payload: callPayload(id, payloadBytes)}
	buf, err := msg.Marshal()
	if err != nil {
		panic(err)
	}
	c := &call{
		id:       id,
		dst:      dst,
		proc:     proc,
		frames:   PackFrames(dst, n.station, id, Call, buf),
		bytes:    payloadBytes,
		started:  n.clock.Now(),
		deadline: n.clock.Now() + sim.Cycle(n.cfg.RetransmitCycles),
		openLoop: openLoop,
		onDone:   onDone,
	}
	n.calls = append(n.calls, c)
	n.byID[id] = c
	if len(n.calls) == 1 || c.deadline < n.nextDeadline {
		n.nextDeadline = c.deadline
	}
	n.stats.CallsIssued.Inc()
	n.emit(obs.KindRPCCall, uint64(id), uint64(payloadBytes))
	n.transmitFrames(c.frames)
	return c
}

// Step implements machine.Device: the client's retransmission timer.
func (n *Node) Step() {
	if len(n.calls) == 0 || n.clock.Now() < n.nextDeadline {
		return
	}
	now := n.clock.Now()
	kept := n.calls[:0]
	var next sim.Cycle
	for _, c := range n.calls {
		if c.done || c.failed {
			continue // reply arrived or given up; drop from the timer list
		}
		if now >= c.deadline {
			if c.attempts >= n.cfg.MaxRetransmits {
				c.failed = true
				delete(n.byID, c.id)
				n.stats.CallsFailed.Inc()
				if c.onDone != nil {
					c.onDone(CallOutcome{
						ID: c.id, Latency: now - c.started, Bytes: c.bytes, Failed: true,
					})
				}
				continue
			}
			c.attempts++
			c.deadline = now + sim.Cycle(n.cfg.RetransmitCycles<<uint(c.attempts))
			n.stats.Retransmits.Inc()
			n.emit(obs.KindRPCRetransmit, uint64(c.id), uint64(c.attempts))
			n.transmitFrames(c.frames)
		}
		if len(kept) == 0 || c.deadline < next {
			next = c.deadline
		}
		kept = append(kept, c)
	}
	for i := len(kept); i < len(n.calls); i++ {
		n.calls[i] = nil
	}
	n.calls = kept
	n.nextDeadline = next
}

// NextEvent implements machine.Device: between retransmission
// deadlines Step provably does nothing, so a machine whose only pending
// work is waiting for replies can big-step the whole wait. nextDeadline
// may belong to a call that has since completed — an early wake-up and
// a re-sweep, which the contract permits (under-reporting is a lost
// skip; over-reporting would be a missed retransmit).
func (n *Node) NextEvent(now sim.Cycle) sim.Cycle {
	if len(n.calls) == 0 {
		return sim.Never
	}
	if n.nextDeadline <= now {
		return now + 1
	}
	return n.nextDeadline
}

// SkipCycles implements machine.Device; the timer keeps no per-cycle
// accounting.
func (n *Node) SkipCycles(uint64) {}

// Deliver accepts a frame from the shared medium: it lands in a receive
// buffer by DMA, then the transport parses it out of machine memory.
// The cluster wires it as the node's segment handler.
func (n *Node) Deliver(words []uint32) {
	if len(words) == 0 {
		return
	}
	slot := n.nextRx()
	phys, qaddr := n.slotAddr(slot)
	nwords := len(words)
	n.eth.Receive(qbus.Packet{Words: words}, qaddr, func(pkt qbus.Packet) {
		if len(pkt.Words) == 0 {
			// Receive DMA aborted: the frame is lost in the NIC; the
			// client's retransmission recovers it.
			n.stats.RxOverruns.Inc()
			return
		}
		n.onFrame(phys, nwords)
	})
}

// onFrame reads a received frame back out of machine memory (proving
// the DMA path carried it) and feeds reassembly.
func (n *Node) onFrame(phys mbus.Addr, nwords int) {
	words := make([]uint32, nwords)
	for i := range words {
		words[i] = n.m.Memory().Peek(phys + mbus.Addr(i*4))
	}
	f, err := parseFrag(words)
	if err != nil {
		n.stats.BadFrames.Inc()
		return
	}
	if f.dst != n.station {
		// A frame for another station reached this NIC: a bridge
		// misroute or a cluster wiring bug. A real DEQNA's address
		// filter would have ignored it; count and drop.
		n.stats.Misrouted.Inc()
		return
	}
	key := uint64(f.src)<<48 | uint64(f.kind)<<32 | uint64(f.id)
	r := n.reasms[key]
	if f.index == 0 {
		// First fragment (or a full retransmission): start fresh.
		r = &reasm{count: f.count, total: f.total}
		n.reasms[key] = r
	} else if r == nil || f.index != r.next || f.count != r.count || f.total != r.total {
		// Out-of-order or stale fragment: the transfer protocol delivers
		// fragments in order, so discard and let retransmission restart.
		n.stats.FragDrops.Inc()
		if r != nil {
			delete(n.reasms, key)
		}
		return
	}
	r.data = append(r.data, f.data...)
	r.next++
	if r.next < r.count {
		return
	}
	delete(n.reasms, key)
	if len(r.data) != r.total {
		n.stats.BadMessages.Inc()
		return
	}
	msg, err := Unmarshal(r.data)
	if err != nil {
		n.stats.BadMessages.Inc()
		return
	}
	switch msg.Kind {
	case Call:
		n.serverAccept(f.src, msg)
	case Reply:
		n.clientAccept(msg)
	}
}

// serverAccept deduplicates and enqueues an inbound call.
func (n *Node) serverAccept(src int, msg *Message) {
	key := uint64(src)<<32 | uint64(msg.ID)
	if e, ok := n.dedup[key]; ok {
		n.stats.DupCalls.Inc()
		if e.replyFrames != nil {
			// Already served: the reply was lost; re-send the cached one.
			n.emit(obs.KindRPCDuplicate, uint64(msg.ID), 1)
			n.transmitFrames(e.replyFrames)
		} else {
			// Still in service: absorb the duplicate.
			n.emit(obs.KindRPCDuplicate, uint64(msg.ID), 0)
		}
		return
	}
	want := callPayload(msg.ID, len(msg.Payload))
	for i := range want {
		if msg.Payload[i] != want[i] {
			n.stats.BadPayload.Inc()
			break
		}
	}
	e := &svc{src: src, msg: msg}
	n.dedup[key] = e
	if n.cfg.MaxQueue > 0 && len(n.srvQueue) >= n.cfg.MaxQueue {
		// Admission control: the queue is at its bound. Answer from the
		// receive path with a rejection reply — cached in the dedup entry
		// like any served reply, so a retransmitted shed call re-sends
		// the same rejection instead of sneaking into the queue.
		n.stats.CallsShed.Inc()
		n.emit(obs.KindRPCShed, uint64(msg.ID), uint64(src))
		reject := &Message{Kind: Reply, ID: msg.ID, Proc: ShedProc,
			Payload: callPayload(msg.ID^0xabcd, 4)}
		buf, err := reject.Marshal()
		if err != nil {
			panic(err)
		}
		e.replyFrames = PackFrames(src, n.station, msg.ID, Reply, buf)
		n.transmitFrames(e.replyFrames)
		return
	}
	n.srvQueue = append(n.srvQueue, e)
	if len(n.srvQueue) > n.queuePeak {
		n.queuePeak = len(n.srvQueue)
	}
	n.stats.CallsReceived.Inc()
}

// popServer hands the oldest queued call to a worker thread.
func (n *Node) popServer() *svc {
	if len(n.srvQueue) == 0 {
		return nil
	}
	e := n.srvQueue[0]
	n.srvQueue = n.srvQueue[1:]
	n.emit(obs.KindRPCServe, uint64(e.msg.ID), uint64(e.src))
	return e
}

// sendReply marshals, caches, and transmits the reply for a served call.
func (n *Node) sendReply(e *svc) {
	reply := &Message{
		Kind: Reply, ID: e.msg.ID, Proc: e.msg.Proc,
		Payload: callPayload(e.msg.ID^0xabcd, n.cfg.ReplyBytes),
	}
	buf, err := reply.Marshal()
	if err != nil {
		panic(err)
	}
	e.replyFrames = PackFrames(e.src, n.station, e.msg.ID, Reply, buf)
	n.stats.Served.Inc()
	n.transmitFrames(e.replyFrames)
}

// clientAccept matches a reply to its outstanding call.
func (n *Node) clientAccept(msg *Message) {
	c, ok := n.byID[msg.ID]
	if !ok || c.done {
		n.stats.DupReplies.Inc()
		n.emit(obs.KindRPCDuplicate, uint64(msg.ID), 2)
		return
	}
	c.done = true
	c.shed = msg.Proc == ShedProc
	c.latency = n.clock.Now() - c.started
	delete(n.byID, msg.ID)
	n.emit(obs.KindRPCReply, uint64(c.id), uint64(c.latency))
	if c.shed {
		n.stats.ShedReplies.Inc()
	} else if c.openLoop {
		n.recordCompleted(c)
	}
	if c.onDone != nil {
		c.onDone(CallOutcome{
			ID: c.id, Latency: c.latency, Bytes: c.bytes, Shed: c.shed,
		})
	}
}

// recordCompleted accounts a finished call. Shed and failed calls never
// reach it: goodput counters and the latency histogram hold only calls
// the server actually served.
func (n *Node) recordCompleted(c *call) {
	n.stats.CallsCompleted.Inc()
	n.stats.BytesMoved.Add(uint64(c.bytes))
	n.latSum += uint64(c.latency)
	n.latHist.Observe(uint64(c.latency))
}

// StartServer forks the worker pool. Each worker polls the dispatch
// queue and processes calls inside the per-connection station (the
// transfer protocol's in-order server stage), so service is serialized
// exactly like the server station of Config.Bound however many workers
// overlap the waiting.
func (n *Node) StartServer() {
	for w := 0; w < n.cfg.Workers; w++ {
		n.k.Fork(n.workerProgram(), topaz.ThreadSpec{
			Name: fmt.Sprintf("rpc-server-%d", w), WorkingSetLines: 48,
		}, nil)
	}
}

// workerProgram is one server worker's state machine.
func (n *Node) workerProgram() topaz.Program {
	const (
		wPoll = iota
		wLock
		wCompute
		wSleep
		wReply
		wUnlock
	)
	state := wPoll
	var cur *svc
	return topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		switch state {
		case wPoll:
			cur = n.popServer()
			if cur == nil {
				return topaz.Sleep{Cycles: n.cfg.PollCycles}
			}
			state = wLock
			return topaz.Lock{M: n.connMu}
		case wLock:
			state = wCompute
			return topaz.Compute{Instructions: n.cfg.DispatchInstr}
		case wCompute:
			state = wSleep
			svc := n.serverCycles(len(cur.msg.Payload)) + n.cfg.ProcService[cur.msg.Proc]
			// The station's busy time: the calibrated sleep plus the
			// instruction slice that just ran, both under the connection
			// mutex — the utilization numerator the queuing-model
			// differential compares against the analytic rho.
			n.stats.ServiceCycles.Add(svc + n.nominalInstrCycles())
			return topaz.Sleep{Cycles: svc}
		case wSleep:
			state = wReply
			return topaz.Call{Fn: func() { n.sendReply(cur) }}
		case wReply:
			state = wUnlock
			return topaz.Unlock{M: n.connMu}
		default:
			state = wPoll
			cur = nil
			return topaz.Compute{Instructions: 1}
		}
	})
}

// StartCallers forks nthreads closed-loop caller threads aimed at dst:
// each keeps exactly one call outstanding, so nthreads is the
// concurrent-calls axis of the §6 experiment.
func (n *Node) StartCallers(nthreads, dst, payloadBytes int) {
	if payloadBytes == 0 {
		payloadBytes = n.cfg.Costs.PayloadBytes
	}
	for i := 0; i < nthreads; i++ {
		n.k.Fork(n.callerProgram(dst, payloadBytes), topaz.ThreadSpec{
			Name: fmt.Sprintf("rpc-caller-%d", i), WorkingSetLines: 48,
		}, nil)
	}
}

// callerProgram is one closed-loop caller's state machine.
func (n *Node) callerProgram(dst, payloadBytes int) topaz.Program {
	const (
		cBegin = iota
		cLock
		cCompute
		cSleep
		cIssue
		cPoll
		cFinLock
		cFinSleep
		cFinish
	)
	state := cBegin
	var cur *call
	return topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		switch state {
		case cBegin:
			state = cLock
			return topaz.Lock{M: n.cliMu}
		case cLock:
			state = cCompute
			return topaz.Compute{Instructions: n.cfg.DispatchInstr}
		case cCompute:
			state = cSleep
			return topaz.Sleep{Cycles: n.clientCycles(payloadBytes)}
		case cSleep:
			state = cIssue
			return topaz.Call{Fn: func() { cur = n.issue(dst, payloadBytes, DefaultProc, false, nil) }}
		case cIssue:
			state = cPoll
			return topaz.Unlock{M: n.cliMu}
		case cPoll:
			if cur.failed {
				state = cBegin
				cur = nil
				return topaz.Compute{Instructions: 1}
			}
			if !cur.done {
				return topaz.Sleep{Cycles: n.cfg.PollCycles}
			}
			state = cFinLock
			return topaz.Lock{M: n.cliMu}
		case cFinLock:
			state = cFinSleep
			return topaz.Sleep{Cycles: n.cfg.Costs.ClientFinishCycles}
		case cFinSleep:
			state = cFinish
			return topaz.Call{Fn: func() {
				// Latency spans issue to finish, like transport.Run. A
				// shed reply is not goodput; the caller just loops.
				cur.latency = n.clock.Now() - cur.started
				if !cur.shed {
					n.recordCompleted(cur)
				}
			}}
		default:
			state = cBegin
			cur = nil
			return topaz.Unlock{M: n.cliMu}
		}
	})
}

// StartOpenLoop forks a generator thread that issues count calls to dst
// at a fixed interval regardless of completions — the open-loop load
// the bus-service-discipline studies measure contention with. Completed
// calls are accounted when their replies arrive.
func (n *Node) StartOpenLoop(dst, payloadBytes int, intervalCycles uint64, count int) {
	if payloadBytes == 0 {
		payloadBytes = n.cfg.Costs.PayloadBytes
	}
	if intervalCycles == 0 {
		panic("rpc: open-loop generator needs a positive interval")
	}
	issued := 0
	sleeping := false
	n.k.Fork(topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		if !sleeping {
			sleeping = true
			return topaz.Sleep{Cycles: intervalCycles}
		}
		sleeping = false
		if issued >= count {
			return topaz.Exit{}
		}
		issued++
		return topaz.Call{Fn: func() { n.issue(dst, payloadBytes, DefaultProc, true, nil) }}
	}), topaz.ThreadSpec{Name: "rpc-openloop"}, nil)
}
