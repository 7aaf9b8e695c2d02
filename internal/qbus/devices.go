package qbus

import (
	"fmt"

	"firefly/internal/mbus"
	"firefly/internal/sim"
	"firefly/internal/stats"
)

// SectorBytes is the disk sector size.
const SectorBytes = 512

// sectorWords is the sector size in longwords.
const sectorWords = SectorBytes / 4

// DiskConfig models the RQDX3 controller plus an RD-series drive.
type DiskConfig struct {
	// Sectors is the drive capacity.
	Sectors uint32
	// SeekCycles is the average seek plus rotational latency in bus
	// cycles (default 250_000 = 25 ms, typical for an RD53).
	SeekCycles uint64
	// MediaWordCycles is the media transfer pacing per longword (default
	// 16 cycles = 1.6 µs/word ≈ 625 KB/s).
	MediaWordCycles uint64
	// InterruptPort is the MBus port interrupted on completion (the I/O
	// processor, port 0).
	InterruptPort int
}

func (c DiskConfig) withDefaults() DiskConfig {
	if c.Sectors == 0 {
		c.Sectors = 138672 // RD53: ~71 MB
	}
	if c.SeekCycles == 0 {
		c.SeekCycles = 250_000
	}
	if c.MediaWordCycles == 0 {
		c.MediaWordCycles = 16
	}
	return c
}

// DiskStats counts controller activity.
type DiskStats struct {
	Reads      stats.Counter
	Writes     stats.Counter
	Faults     stats.Counter // commands whose DMA transfer aborted
	Interrupts stats.Counter
}

// diskOp is a queued disk command.
type diskOp struct {
	write  bool
	lba    uint32
	qaddr  uint32
	onDone func()
}

// Disk is the RQDX3: a buffered DMA disk controller. Sector data lives in
// a sparse block store; transfers move real bytes between the store and
// Firefly memory through the DMA engine.
type Disk struct {
	cfg    DiskConfig
	clock  *sim.Clock
	engine *Engine
	bus    *mbus.Bus

	store map[uint32][]uint32 // lba -> sector words

	queue    []diskOp
	busyTill sim.Cycle
	seeking  bool
	cur      *diskOp

	stats DiskStats
}

// NewDisk creates a disk controller using the given DMA engine.
func NewDisk(clock *sim.Clock, bus *mbus.Bus, engine *Engine, cfg DiskConfig) *Disk {
	return &Disk{
		cfg:    cfg.withDefaults(),
		clock:  clock,
		engine: engine,
		bus:    bus,
		store:  make(map[uint32][]uint32),
	}
}

// Stats returns a snapshot of the disk counters.
func (d *Disk) Stats() DiskStats { return d.stats }

// LoadSector installs sector contents directly (disk image preparation).
func (d *Disk) LoadSector(lba uint32, words []uint32) {
	if lba >= d.cfg.Sectors {
		panic(fmt.Sprintf("qbus: LBA %d beyond drive capacity", lba))
	}
	if len(words) != sectorWords {
		panic(fmt.Sprintf("qbus: sector must be %d words", sectorWords))
	}
	d.store[lba] = append([]uint32(nil), words...)
}

// PeekSector returns sector contents without device activity.
func (d *Disk) PeekSector(lba uint32) []uint32 {
	if s, ok := d.store[lba]; ok {
		return append([]uint32(nil), s...)
	}
	return make([]uint32, sectorWords)
}

// Read queues a sector read: disk -> memory at QBus address qaddr.
func (d *Disk) Read(lba uint32, qaddr uint32, onDone func()) {
	if lba >= d.cfg.Sectors {
		panic(fmt.Sprintf("qbus: LBA %d beyond drive capacity", lba))
	}
	d.queue = append(d.queue, diskOp{write: false, lba: lba, qaddr: qaddr, onDone: onDone})
}

// Write queues a sector write: memory at QBus address qaddr -> disk.
func (d *Disk) Write(lba uint32, qaddr uint32, onDone func()) {
	if lba >= d.cfg.Sectors {
		panic(fmt.Sprintf("qbus: LBA %d beyond drive capacity", lba))
	}
	d.queue = append(d.queue, diskOp{write: true, lba: lba, qaddr: qaddr, onDone: onDone})
}

// QueueLen returns pending commands (excluding any in progress).
func (d *Disk) QueueLen() int { return len(d.queue) }

// Busy reports whether a command is queued or in progress.
func (d *Disk) Busy() bool { return d.cur != nil || len(d.queue) > 0 }

// NextEvent reports the earliest future cycle at which Step may change
// the controller's state: the end of the mechanical delay while seeking,
// the next cycle while a command waits at the head of the queue, and
// never otherwise — during the DMA phase the controller advances through
// engine callbacks, and the engine's own NextEvent covers that activity.
func (d *Disk) NextEvent(now sim.Cycle) sim.Cycle {
	if d.cur != nil {
		if d.seeking {
			if d.busyTill > now {
				return d.busyTill
			}
			return now + 1
		}
		return sim.Never
	}
	if len(d.queue) > 0 {
		return now + 1
	}
	return sim.Never
}

// SkipCycles is a no-op: the controller keeps no per-cycle accounting.
func (d *Disk) SkipCycles(uint64) {}

// Step advances the controller one cycle.
func (d *Disk) Step() {
	if d.cur != nil {
		if d.seeking && d.clock.Now() >= d.busyTill {
			d.seeking = false
			d.startTransfer()
		}
		return
	}
	if len(d.queue) == 0 {
		return
	}
	op := d.queue[0]
	d.queue = d.queue[1:]
	d.cur = &op
	d.seeking = true
	d.busyTill = d.clock.Now() + sim.Cycle(d.cfg.SeekCycles)
}

// startTransfer begins the DMA phase after the mechanical delay.
func (d *Disk) startTransfer() {
	op := d.cur
	if op.write {
		// Memory -> controller buffer -> media.
		buf := make([]uint32, sectorWords)
		d.engine.Submit(&Transfer{
			Device: "rqdx3", ToMemory: false,
			QAddr: op.qaddr, Words: sectorWords, Data: buf,
			OnDone: func(fault bool) {
				if fault {
					// A partial DMA read must not reach the media: the
					// sector keeps its prior contents and the completion
					// interrupt carries error status.
					d.stats.Faults.Inc()
					d.complete(op)
					return
				}
				d.store[op.lba] = buf
				d.stats.Writes.Inc()
				d.complete(op)
			},
		})
		return
	}
	data := d.PeekSector(op.lba)
	d.engine.Submit(&Transfer{
		Device: "rqdx3", ToMemory: true,
		QAddr: op.qaddr, Words: sectorWords, Data: data,
		OnDone: func(fault bool) {
			if fault {
				d.stats.Faults.Inc()
			} else {
				d.stats.Reads.Inc()
			}
			d.complete(op)
		},
	})
}

func (d *Disk) complete(op *diskOp) {
	d.cur = nil
	d.stats.Interrupts.Inc()
	d.bus.Interrupt(d.engine.Port(), d.cfg.InterruptPort)
	if op.onDone != nil {
		op.onDone()
	}
}

// EthernetConfig models the DEQNA controller.
type EthernetConfig struct {
	// WireWordCycles paces the 10 Mbit/s Ethernet: one longword per 32
	// bus cycles (3.2 µs = 32 bits at 10 Mbit/s).
	WireWordCycles uint64
	// InterruptPort is interrupted on send/receive completion.
	InterruptPort int
}

func (c EthernetConfig) withDefaults() EthernetConfig {
	if c.WireWordCycles == 0 {
		c.WireWordCycles = 32
	}
	return c
}

// EthernetStats counts controller activity.
type EthernetStats struct {
	Transmitted stats.Counter
	Received    stats.Counter
	Faults      stats.Counter // operations whose DMA transfer aborted
	Interrupts  stats.Counter
	WordsOnWire stats.Counter
}

// Packet is an Ethernet frame payload in longwords.
type Packet struct {
	Words []uint32
}

type etherOp struct {
	transmit bool
	qaddr    uint32
	words    int
	payload  []uint32
	onDone   func(Packet)
}

// Medium is a shared wire the DEQNA can attach to (internal/net's
// Segment). When a medium is attached, the controller's private wire
// model is bypassed: transmitted frames are handed to the medium after
// the DMA fetch, and the medium owns serialization, busy deferral, and
// collision backoff; received frames (which the medium has already
// carried) are DMA'd into memory immediately.
type Medium interface {
	// Transmit serializes pkt from the given station onto the shared
	// wire. done runs when the frame has left the wire (ok) or the
	// transmission was abandoned after repeated collisions (!ok).
	Transmit(station int, pkt Packet, done func(ok bool))
}

// Ethernet is the DEQNA: a DMA Ethernet controller. Transmitted packets
// are handed to the wire callback; received packets are DMA'd into host
// memory.
type Ethernet struct {
	cfg    EthernetConfig
	clock  *sim.Clock
	engine *Engine
	bus    *mbus.Bus

	// OnWire receives every transmitted packet (the network).
	OnWire func(Packet)

	medium  Medium
	station int

	queue    []etherOp
	cur      *etherOp
	wireTill sim.Cycle
	onWire   bool

	stats EthernetStats
}

// NewEthernet creates a DEQNA using the given DMA engine.
func NewEthernet(clock *sim.Clock, bus *mbus.Bus, engine *Engine, cfg EthernetConfig) *Ethernet {
	return &Ethernet{cfg: cfg.withDefaults(), clock: clock, engine: engine, bus: bus}
}

// Stats returns a snapshot of the controller counters.
func (e *Ethernet) Stats() EthernetStats { return e.stats }

// AttachMedium connects the controller to a shared wire as the given
// station. Attaching a nil medium restores the private wire model.
func (e *Ethernet) AttachMedium(m Medium, station int) {
	e.medium = m
	e.station = station
}

// Busy reports whether operations are queued or in progress.
func (e *Ethernet) Busy() bool { return e.cur != nil || len(e.queue) > 0 }

// Transmit queues a packet send: words longwords DMA'd from QBus address
// qaddr, then serialized onto the wire. onDone (optional) receives the
// transmitted packet.
func (e *Ethernet) Transmit(qaddr uint32, words int, onDone func(Packet)) {
	if words <= 0 || words > 379 { // 1516-byte maximum frame
		panic(fmt.Sprintf("qbus: implausible frame of %d words", words))
	}
	e.queue = append(e.queue, etherOp{transmit: true, qaddr: qaddr, words: words, onDone: onDone})
}

// Receive queues an inbound packet: serialized from the wire, then DMA'd
// to QBus address qaddr.
func (e *Ethernet) Receive(pkt Packet, qaddr uint32, onDone func(Packet)) {
	if len(pkt.Words) == 0 {
		panic("qbus: empty inbound packet")
	}
	e.queue = append(e.queue, etherOp{
		transmit: false, qaddr: qaddr, words: len(pkt.Words),
		payload: append([]uint32(nil), pkt.Words...), onDone: onDone,
	})
}

// NextEvent reports the earliest future cycle at which Step may change
// the controller's state: the end of wire serialization under the
// private wire model, the next cycle while an operation waits at the
// head of the queue, and never otherwise — DMA phases advance through
// engine callbacks and shared-medium transmits through the segment's
// completion callback, both covered by their owners' NextEvent.
func (e *Ethernet) NextEvent(now sim.Cycle) sim.Cycle {
	if e.cur != nil {
		if e.onWire {
			if e.wireTill > now {
				return e.wireTill
			}
			return now + 1
		}
		return sim.Never
	}
	if len(e.queue) > 0 {
		return now + 1
	}
	return sim.Never
}

// SkipCycles is a no-op: the controller keeps no per-cycle accounting.
func (e *Ethernet) SkipCycles(uint64) {}

// Step advances the controller one cycle.
func (e *Ethernet) Step() {
	if e.cur != nil {
		if e.onWire && e.clock.Now() >= e.wireTill {
			e.onWire = false
			e.finishWire()
		}
		return
	}
	if len(e.queue) == 0 {
		return
	}
	op := e.queue[0]
	e.queue = e.queue[1:]
	e.cur = &op
	if op.transmit {
		buf := make([]uint32, op.words)
		e.engine.Submit(&Transfer{
			Device: "deqna", ToMemory: false,
			QAddr: op.qaddr, Words: op.words, Data: buf,
			OnDone: func(fault bool) {
				if fault {
					// Nothing goes on the wire; complete with an empty
					// packet so software sees the transmit error.
					e.stats.Faults.Inc()
					e.complete(&op, Packet{})
					return
				}
				op.payload = buf
				if e.medium != nil {
					e.medium.Transmit(e.station, Packet{Words: buf}, func(ok bool) {
						if !ok {
							// Abandoned after repeated collisions; software
							// sees the transmit error and may retry.
							e.stats.Faults.Inc()
							e.complete(&op, Packet{})
							return
						}
						e.stats.WordsOnWire.Add(uint64(op.words))
						e.finishTransmit(&op)
					})
					return
				}
				e.beginWire(op.words)
			},
		})
		return
	}
	if e.medium != nil {
		// The shared wire already carried the frame; DMA straight in.
		e.submitReceiveDMA(&op)
		return
	}
	// Receive: wire first, then DMA into memory.
	e.beginWire(op.words)
}

func (e *Ethernet) beginWire(words int) {
	e.onWire = true
	e.wireTill = e.clock.Now() + sim.Cycle(uint64(words)*e.cfg.WireWordCycles)
	e.stats.WordsOnWire.Add(uint64(words))
}

func (e *Ethernet) finishWire() {
	op := e.cur
	if op.transmit {
		e.finishTransmit(op)
		return
	}
	e.submitReceiveDMA(op)
}

// finishTransmit completes a transmit whose frame has left the wire.
func (e *Ethernet) finishTransmit(op *etherOp) {
	e.stats.Transmitted.Inc()
	pkt := Packet{Words: op.payload}
	e.complete(op, pkt)
	if e.OnWire != nil {
		e.OnWire(pkt)
	}
}

// submitReceiveDMA moves a received frame from the controller into host
// memory.
func (e *Ethernet) submitReceiveDMA(op *etherOp) {
	e.engine.Submit(&Transfer{
		Device: "deqna", ToMemory: true,
		QAddr: op.qaddr, Words: op.words, Data: op.payload,
		OnDone: func(fault bool) {
			if fault {
				// The packet is lost (a real DEQNA would flag a receive
				// overrun); the interrupt still fires with error status.
				e.stats.Faults.Inc()
				e.complete(op, Packet{})
				return
			}
			e.stats.Received.Inc()
			e.complete(op, Packet{Words: op.payload})
		},
	})
}

func (e *Ethernet) complete(op *etherOp, pkt Packet) {
	e.cur = nil
	e.stats.Interrupts.Inc()
	e.bus.Interrupt(e.engine.Port(), e.cfg.InterruptPort)
	if op.onDone != nil {
		op.onDone(pkt)
	}
}
