// Package memory models the Firefly main storage: one master module plus
// slave modules on the MBus. The original system used four-megabyte
// modules (up to 16 MB total); the CVAX version uses 32 MB modules (up to
// 128 MB). Storage responds in the fourth cycle of an MBus operation
// unless a cache asserted MShared, in which case it is inhibited for reads
// (the caches supply the data) but still absorbs writes — Firefly
// write-through updates main storage as well as the sharing caches.
package memory

import (
	"fmt"

	"firefly/internal/mbus"
	"firefly/internal/obs"
	"firefly/internal/sim"
)

// Standard module sizes from the paper.
const (
	MicroVAXModuleBytes = 4 << 20  // original master/slave modules
	CVAXModuleBytes     = 32 << 20 // second-version modules
)

// pageWords is the allocation granule of the sparse word store: 16 K
// longwords (64 KB). Pages materialize on first write; untouched pages
// cost one nil slot in the page table.
const pageWords = 1 << 14

// Module is one storage board. Storage is word-granular and sparse: a
// word never written reads as zero, as DRAM contents are undefined anyway
// and the simulator zero-fills. The store is a lazily populated page
// table rather than a map — storage is touched on every MBus operation,
// and map lookups dominated the simulator's per-cycle profile.
type Module struct {
	base  mbus.Addr
	size  uint32
	pages [][]uint32 // indexed by word-index >> log2(pageWords); nil = zeroes

	reads  uint64
	writes uint64
}

// NewModule returns a module covering [base, base+size).
func NewModule(base mbus.Addr, size uint32) *Module {
	if size == 0 || size%4 != 0 {
		panic(fmt.Sprintf("memory: bad module size %d", size))
	}
	if uint32(base)%4 != 0 {
		panic(fmt.Sprintf("memory: misaligned module base %v", base))
	}
	nPages := (size/4 + pageWords - 1) / pageWords
	return &Module{base: base, size: size, pages: make([][]uint32, nPages)}
}

// wordIndex returns addr's longword index relative to the module base.
func (m *Module) wordIndex(addr mbus.Addr) uint32 {
	return uint32(addr.Line()-m.base) >> 2
}

// peek returns the stored word without counter effects.
func (m *Module) peek(addr mbus.Addr) uint32 {
	w := m.wordIndex(addr)
	page := m.pages[w/pageWords]
	if page == nil {
		return 0
	}
	return page[w%pageWords]
}

// poke stores a word without counter effects, materializing its page.
func (m *Module) poke(addr mbus.Addr, data uint32) {
	w := m.wordIndex(addr)
	page := m.pages[w/pageWords]
	if page == nil {
		page = make([]uint32, pageWords)
		m.pages[w/pageWords] = page
	}
	page[w%pageWords] = data
}

// Base returns the module's first byte address.
func (m *Module) Base() mbus.Addr { return m.base }

// Size returns the module's capacity in bytes.
func (m *Module) Size() uint32 { return m.size }

// Contains reports whether addr falls inside the module.
func (m *Module) Contains(addr mbus.Addr) bool {
	return addr >= m.base && uint32(addr-m.base) < m.size
}

func (m *Module) read(addr mbus.Addr) uint32 {
	m.reads++
	return m.peek(addr)
}

func (m *Module) write(addr mbus.Addr, data uint32) {
	m.writes++
	m.poke(addr, data)
}

// Accesses returns the module's read and write counts.
func (m *Module) Accesses() (reads, writes uint64) { return m.reads, m.writes }

// ECCModel injects storage soft errors. The storage modules carry ECC:
// a single-bit (correctable) error is fixed as the word passes through
// the checker and only counted; a multi-bit (uncorrectable) error is
// detected but not fixable and surfaces to the bus as a faulted read.
// Errors are transient — the model is consulted per read, so a retried
// read draws fresh.
type ECCModel interface {
	// ReadFault reports whether a soft error struck the word being read
	// and whether it exceeded the single-bit correction capability.
	ReadFault(addr mbus.Addr) (faulted, uncorrectable bool)
}

// ECCStats counts the ECC checker's activity.
type ECCStats struct {
	Corrected     uint64 // single-bit errors fixed in flight
	Uncorrectable uint64 // multi-bit errors surfaced as faulted reads
}

// System is the full storage array: master plus slaves, presented to the
// bus as a single address space. It implements mbus.Memory (and
// mbus.ECCMemory; without an ECC model installed the extended read is
// identical to ReadWord).
type System struct {
	modules []*Module
	ecc     ECCModel
	eccStat ECCStats
	tracer  *obs.Tracer
	clock   *sim.Clock
}

// SetECC installs (or, with nil, removes) the soft-error model.
func (s *System) SetECC(m ECCModel) { s.ecc = m }

// SetTracer installs the observability tracer; the storage array emits
// obs.KindFaultMemECC for every ECC event, stamped from clock (which may
// be nil for clockless rigs).
func (s *System) SetTracer(tr *obs.Tracer, clock *sim.Clock) {
	s.tracer = tr
	s.clock = clock
}

// ECCStats returns the ECC checker counters.
func (s *System) ECCStats() ECCStats { return s.eccStat }

// NewSystem builds a contiguous storage array of n modules of the given
// size starting at address zero, matching how the Firefly backplane was
// populated.
func NewSystem(n int, moduleSize uint32) *System {
	if n < 1 {
		panic("memory: need at least the master module")
	}
	s := &System{}
	for i := 0; i < n; i++ {
		s.modules = append(s.modules, NewModule(mbus.Addr(uint32(i)*moduleSize), moduleSize))
	}
	return s
}

// NewMicroVAXSystem returns the standard original configuration: n
// four-megabyte modules (1 master + n-1 slaves), n in 1..4.
func NewMicroVAXSystem(n int) *System {
	if n < 1 || n > 4 {
		panic(fmt.Sprintf("memory: MicroVAX Firefly holds 1..4 modules, got %d", n))
	}
	return NewSystem(n, MicroVAXModuleBytes)
}

// NewCVAXSystem returns the second-version configuration: n 32 MB
// modules, n in 1..4 (up to 128 MB).
func NewCVAXSystem(n int) *System {
	if n < 1 || n > 4 {
		panic(fmt.Sprintf("memory: CVAX Firefly holds 1..4 modules, got %d", n))
	}
	return NewSystem(n, CVAXModuleBytes)
}

// Bytes returns the total populated storage.
func (s *System) Bytes() uint64 {
	var t uint64
	for _, m := range s.modules {
		t += uint64(m.size)
	}
	return t
}

// Module returns the i'th module.
func (s *System) Module(i int) *Module { return s.modules[i] }

func (s *System) find(addr mbus.Addr) *Module {
	for _, m := range s.modules {
		if m.Contains(addr) {
			return m
		}
	}
	return nil
}

// ReadWord implements mbus.Memory.
func (s *System) ReadWord(addr mbus.Addr) (uint32, bool) {
	m := s.find(addr)
	if m == nil {
		return 0, false
	}
	return m.read(addr), true
}

// WriteWord implements mbus.Memory.
func (s *System) WriteWord(addr mbus.Addr, data uint32) bool {
	m := s.find(addr)
	if m == nil {
		return false
	}
	m.write(addr, data)
	return true
}

// ReadWordECC implements mbus.ECCMemory: ReadWord plus the soft-error
// model. A correctable error is fixed (the returned data is good) and
// counted; an uncorrectable one returns uncorrectable=true and the data
// must not be used.
func (s *System) ReadWordECC(addr mbus.Addr) (uint32, bool, bool) {
	m := s.find(addr)
	if m == nil {
		return 0, false, false
	}
	data := m.read(addr)
	if s.ecc != nil {
		if faulted, unc := s.ecc.ReadFault(addr); faulted {
			if unc {
				s.eccStat.Uncorrectable++
				s.emitECC(addr, 1)
				return 0, true, true
			}
			s.eccStat.Corrected++
			s.emitECC(addr, 0)
		}
	}
	return data, true, false
}

// emitECC traces one ECC event (unc is 1 for uncorrectable).
func (s *System) emitECC(addr mbus.Addr, unc uint64) {
	if s.tracer == nil {
		return
	}
	var cycle uint64
	if s.clock != nil {
		cycle = uint64(s.clock.Now())
	}
	s.tracer.Emit(obs.Event{
		Cycle: cycle,
		Kind:  obs.KindFaultMemECC,
		Unit:  -1,
		Addr:  uint32(addr),
		A:     unc,
	})
}

// Peek reads a word without touching the access counters; harnesses and
// invariant checks use it so measurement does not perturb statistics.
func (s *System) Peek(addr mbus.Addr) uint32 {
	m := s.find(addr)
	if m == nil {
		return 0
	}
	return m.peek(addr)
}

// Poke writes a word without touching the access counters, for loading
// initial images (boot code, display work queues) before a run.
func (s *System) Poke(addr mbus.Addr, data uint32) {
	m := s.find(addr)
	if m == nil {
		panic(fmt.Sprintf("memory: Poke outside populated storage: %v", addr))
	}
	m.poke(addr, data)
}

var _ mbus.Memory = (*System)(nil)
var _ mbus.ECCMemory = (*System)(nil)
