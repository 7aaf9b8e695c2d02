package display

import (
	"fmt"

	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/sim"
	"firefly/internal/stats"
)

// Frame buffer geometry: "a one-megapixel frame buffer constructed with
// video RAMs. Three-quarters of the frame buffer holds the display bitmap,
// while the rest is available to the display manager" (§5).
const (
	FrameWidth    = 1024
	FrameHeight   = 1024
	VisibleHeight = 768
)

// Microengine timing. The 29116 runs at 10 MHz — one microcycle per
// 100 ns bus cycle. Large-area painting sustains 16 megapixels/second
// (0.625 microcycles per pixel) and the font-cache path paints about
// 20,000 10-point characters per second (500 microcycles per character).
const (
	pixelCyclesNum   = 5 // cycles per pixel = 5/8
	pixelCyclesDen   = 8
	charCycles       = 500
	fetchCycles      = 20     // command decode overhead
	defaultPollEvery = 500    // 50 µs doorbell polling
	depositEvery     = 166667 // 60 Hz keyboard/mouse deposit
)

// Command is one work-queue entry.
type Command interface{ isCommand() }

// CmdFill paints a rectangle with a source-free op (OpSet/OpClear/
// OpInvert).
type CmdFill struct {
	R  Rect
	Op RasterOp
}

// CmdBlt copies within the frame buffer.
type CmdBlt struct {
	R      Rect
	SX, SY int
	Op     RasterOp
}

// CmdBltFromMemory loads rectangle R from Firefly main memory at Addr
// (row-major, 32 pixels per word, rows padded to word boundaries).
type CmdBltFromMemory struct {
	R    Rect
	Addr mbus.Addr
}

// CmdBltToMemory stores rectangle R into main memory at Addr.
type CmdBltToMemory struct {
	R    Rect
	Addr mbus.Addr
}

// CmdPaintString paints text at (X, Y) via the font cache.
type CmdPaintString struct {
	S    string
	X, Y int
	Op   RasterOp
}

func (CmdFill) isCommand()          {}
func (CmdBlt) isCommand()           {}
func (CmdBltFromMemory) isCommand() {}
func (CmdBltToMemory) isCommand()   {}
func (CmdPaintString) isCommand()   {}

// Stats counts controller activity.
type Stats struct {
	Commands      stats.Counter
	PixelsPainted stats.Counter
	CharsPainted  stats.Counter
	PollReads     stats.Counter
	MemoryWords   stats.Counter
	Deposits      stats.Counter
}

// Config tunes the controller.
type Config struct {
	// DoorbellAddr is the work-queue doorbell word in main memory.
	DoorbellAddr mbus.Addr
	// StatusAddr receives the completion count.
	StatusAddr mbus.Addr
	// DepositAddr receives the 60 Hz mouse/keyboard deposit (6 words).
	DepositAddr mbus.Addr
	// PollCycles is the doorbell polling interval (default 500 = 50 µs).
	PollCycles uint64
	// Font is the resident font cache (default: synthetic 8x12).
	Font *Font
}

func (c Config) withDefaults() Config {
	if c.DoorbellAddr == 0 {
		c.DoorbellAddr = 0x7000
	}
	if c.StatusAddr == 0 {
		c.StatusAddr = 0x7004
	}
	if c.DepositAddr == 0 {
		c.DepositAddr = 0x7100
	}
	if c.PollCycles == 0 {
		c.PollCycles = defaultPollEvery
	}
	if c.Font == nil {
		c.Font = SyntheticFont(12, 8)
	}
	return c
}

// mdcPhase is the microengine state.
type mdcPhase uint8

const (
	mdcIdle mdcPhase = iota
	mdcPollWait
	mdcFetch
	mdcExec
	mdcMemIO
	mdcStatus
)

// MDC is the monochrome display controller. It owns an MBus port for its
// DMA (queue polling, memory blits, input deposits) and a host-side frame
// buffer.
type MDC struct {
	cfg   Config
	clock *sim.Clock
	mem   *memory.System
	frame *Bitmap

	queue     []Command
	submitted uint32
	completed uint32

	phase     mdcPhase
	busyUntil sim.Cycle
	nextPoll  sim.Cycle
	cur       Command

	// memory blit progress
	memAddr  mbus.Addr
	memRect  Rect
	memRow   int
	memWord  int
	memWrite bool
	rowWords int

	// deposit state
	nextDeposit sim.Cycle
	mouseX      int
	mouseY      int
	keys        [4]uint32
	depositPos  int

	reqValid bool
	req      mbus.Request
	line     mbus.RequestLine // publishes reqValid on the bus
	inFlight bool
	lastRead uint32

	stats Stats
}

// New creates an MDC attached to the bus.
func New(clock *sim.Clock, bus *mbus.Bus, mem *memory.System, cfg Config) *MDC {
	m := &MDC{
		cfg:         cfg.withDefaults(),
		clock:       clock,
		mem:         mem,
		frame:       NewBitmap(FrameWidth, FrameHeight),
		nextDeposit: sim.Cycle(depositEvery),
	}
	bus.Attach(m, nil, nil)
	return m
}

// Frame returns the frame buffer (visible rows 0..VisibleHeight-1).
func (m *MDC) Frame() *Bitmap { return m.frame }

// Font returns the resident font cache.
func (m *MDC) Font() *Font { return m.cfg.Font }

// Stats returns a snapshot of the controller counters.
func (m *MDC) Stats() Stats { return m.stats }

// Completed returns the number of commands executed.
func (m *MDC) Completed() uint32 { return m.completed }

// Pending returns queued-but-unexecuted commands.
func (m *MDC) Pending() int { return len(m.queue) }

// Submit appends a command to the work queue and rings the doorbell word
// in main memory with the cumulative submission count (the submitting
// CPU's store; its cost is charged to the caller's own reference stream).
func (m *MDC) Submit(cmd Command) {
	if cmd == nil {
		panic("display: nil command")
	}
	m.queue = append(m.queue, cmd)
	m.submitted++
	m.mem.Poke(m.cfg.DoorbellAddr, m.submitted)
}

// SetMouse updates the mouse position reported at the next deposit.
func (m *MDC) SetMouse(x, y int) { m.mouseX, m.mouseY = x, y }

// KeyDown and KeyUp update the unencoded keyboard bitmap.
func (m *MDC) KeyDown(code int) { m.setKey(code, true) }

// KeyUp releases a key.
func (m *MDC) KeyUp(code int) { m.setKey(code, false) }

func (m *MDC) setKey(code int, down bool) {
	if code < 0 || code >= 128 {
		panic(fmt.Sprintf("display: key code %d out of range", code))
	}
	mask := uint32(1) << uint(code%32)
	if down {
		m.keys[code/32] |= mask
	} else {
		m.keys[code/32] &^= mask
	}
}

// NextEvent implements machine.Device. The microengine polls its work
// queue and deposits input on its own schedule, and it does not model
// when the next of those falls due, so it always reports the next cycle:
// a machine with a display controller never skips.
func (m *MDC) NextEvent(now sim.Cycle) sim.Cycle { return now + 1 }

// SkipCycles implements machine.Device. It is never called, because
// NextEvent never leaves a cycle to skip.
func (m *MDC) SkipCycles(uint64) {}

// Step advances the microengine one cycle.
func (m *MDC) Step() {
	if m.inFlight || m.reqValid {
		return
	}
	now := m.clock.Now()

	// The 60 Hz input deposit preempts everything briefly.
	if now >= m.nextDeposit && m.depositPos == 0 && m.phase != mdcMemIO {
		m.depositPos = 1
	}
	if m.depositPos > 0 {
		m.stepDeposit()
		return
	}

	switch m.phase {
	case mdcIdle:
		if now >= m.nextPoll {
			m.raise(mbus.MRead, m.cfg.DoorbellAddr, 0)
			m.stats.PollReads.Inc()
			m.phase = mdcPollWait
		}
	case mdcPollWait:
		// Result arrived via BusComplete.
		if m.lastRead > uint32(m.completed) && len(m.queue) > 0 {
			m.cur = m.queue[0]
			m.queue = m.queue[1:]
			m.busyUntil = now + fetchCycles
			m.phase = mdcFetch
		} else {
			m.nextPoll = now + sim.Cycle(m.cfg.PollCycles)
			m.phase = mdcIdle
		}
	case mdcFetch:
		if now >= m.busyUntil {
			m.beginExec()
		}
	case mdcExec:
		if now >= m.busyUntil {
			m.finishCommand()
		}
	case mdcMemIO:
		m.stepMemIO()
	case mdcStatus:
		// Status write completed via BusComplete.
		m.phase = mdcIdle
		m.nextPoll = now // poll again immediately: queue may be nonempty
	}
}

func (m *MDC) beginExec() {
	switch cmd := m.cur.(type) {
	case CmdFill:
		n := Fill(m.frame, cmd.R, cmd.Op)
		m.stats.PixelsPainted.Add(uint64(n))
		m.busyUntil = m.clock.Now() + sim.Cycle(uint64(n)*pixelCyclesNum/pixelCyclesDen)
		m.phase = mdcExec
	case CmdBlt:
		n := BitBlt(m.frame, cmd.R, m.frame, cmd.SX, cmd.SY, cmd.Op)
		m.stats.PixelsPainted.Add(uint64(n))
		m.busyUntil = m.clock.Now() + sim.Cycle(uint64(n)*pixelCyclesNum/pixelCyclesDen)
		m.phase = mdcExec
	case CmdPaintString:
		adv := PaintString(m.frame, m.cfg.Font, cmd.S, cmd.X, cmd.Y, cmd.Op)
		chars := uint64(len([]rune(cmd.S)))
		m.stats.CharsPainted.Add(chars)
		m.stats.PixelsPainted.Add(uint64(adv * m.cfg.Font.Height))
		m.busyUntil = m.clock.Now() + sim.Cycle(chars*charCycles)
		m.phase = mdcExec
	case CmdBltFromMemory:
		m.startMemIO(cmd.R, cmd.Addr, false)
	case CmdBltToMemory:
		m.startMemIO(cmd.R, cmd.Addr, true)
	default:
		panic(fmt.Sprintf("display: unknown command %T", cmd))
	}
}

func (m *MDC) startMemIO(r Rect, addr mbus.Addr, toMemory bool) {
	// Clip to the frame buffer; memory layout is dense rows of the
	// clipped rectangle.
	r, _, _ = clip(m.frame, r, nil, 0, 0)
	if r.W <= 0 || r.H <= 0 {
		m.finishCommand()
		return
	}
	m.memRect = r
	m.memAddr = addr
	m.memRow = 0
	m.memWord = 0
	m.memWrite = toMemory
	m.rowWords = (r.W + 31) / 32
	m.phase = mdcMemIO
}

// stepMemIO moves one word per bus operation between memory and the frame
// buffer.
func (m *MDC) stepMemIO() {
	r := m.memRect
	if m.memRow >= r.H {
		m.stats.PixelsPainted.Add(uint64(r.W * r.H))
		m.finishCommand()
		return
	}
	addr := m.memAddr + mbus.Addr((m.memRow*m.rowWords+m.memWord)*4)
	if m.memWrite {
		var w uint32
		for bit := 0; bit < 32; bit++ {
			x := m.memWord*32 + bit
			if x < r.W && m.frame.Get(r.X+x, r.Y+m.memRow) != 0 {
				w |= 1 << (31 - uint(bit))
			}
		}
		m.raise(mbus.MWrite, addr, w)
	} else {
		m.raise(mbus.MRead, addr, 0)
	}
	m.stats.MemoryWords.Inc()
}

// applyMemWord stores a fetched word into the frame buffer.
func (m *MDC) applyMemWord(w uint32) {
	r := m.memRect
	for bit := 0; bit < 32; bit++ {
		x := m.memWord*32 + bit
		if x >= r.W {
			break
		}
		m.frame.Set(r.X+x, r.Y+m.memRow, int(w>>(31-uint(bit)))&1)
	}
}

func (m *MDC) advanceMemIO() {
	m.memWord++
	if m.memWord >= m.rowWords {
		m.memWord = 0
		m.memRow++
	}
}

func (m *MDC) finishCommand() {
	m.completed++
	m.stats.Commands.Inc()
	m.cur = nil
	m.raise(mbus.MWrite, m.cfg.StatusAddr, m.completed)
	m.phase = mdcStatus
}

// stepDeposit writes the 6-word input record: mouse X, mouse Y, and the
// 128-bit unencoded keyboard bitmap.
func (m *MDC) stepDeposit() {
	words := []uint32{
		uint32(int32(m.mouseX)), uint32(int32(m.mouseY)),
		m.keys[0], m.keys[1], m.keys[2], m.keys[3],
	}
	i := m.depositPos - 1
	if i >= len(words) {
		m.depositPos = 0
		m.nextDeposit += sim.Cycle(depositEvery)
		m.stats.Deposits.Inc()
		return
	}
	m.raise(mbus.MWrite, m.cfg.DepositAddr+mbus.Addr(i*4), words[i])
	m.depositPos++
}

func (m *MDC) raise(op mbus.OpKind, addr mbus.Addr, data uint32) {
	m.req = mbus.Request{Op: op, Addr: addr, Data: data}
	m.reqValid = true
	m.line.Set(true)
}

// SetRequestLine implements mbus.Initiator.
func (m *MDC) SetRequestLine(l mbus.RequestLine) { m.line = l }

// BusRequest implements mbus.Initiator.
func (m *MDC) BusRequest() (mbus.Request, bool) { return m.req, m.reqValid }

// BusGrant implements mbus.Initiator.
func (m *MDC) BusGrant() {
	m.reqValid = false
	m.line.Set(false)
	m.inFlight = true
}

// BusComplete implements mbus.Initiator.
func (m *MDC) BusComplete(res mbus.Result) {
	m.inFlight = false
	if res.Op == mbus.MRead {
		m.lastRead = res.Data
		if m.phase == mdcMemIO {
			m.applyMemWord(res.Data)
			m.advanceMemIO()
		}
	} else if m.phase == mdcMemIO {
		m.advanceMemIO()
	}
}

var _ mbus.Initiator = (*MDC)(nil)
