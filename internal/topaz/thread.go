package topaz

import (
	"fmt"

	"firefly/internal/mbus"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// ThreadState is a thread's scheduling state.
type ThreadState uint8

const (
	// Ready: runnable, waiting for a processor.
	Ready ThreadState = iota
	// Running: executing on a processor.
	Running
	// Blocked: waiting on a mutex, condition variable, or join.
	Blocked
	// Done: exited.
	Done
)

// String returns the state name.
func (s ThreadState) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	}
	return fmt.Sprintf("ThreadState(%d)", uint8(s))
}

// ThreadSpec configures a new thread's memory behaviour.
type ThreadSpec struct {
	// Name labels the thread in reports.
	Name string
	// WorkingSetLines is the thread's active footprint (default 64 lines).
	WorkingSetLines int
	// DriftProb is the per-reference working-set drift (default 0.002).
	DriftProb float64
	// SharedFraction is the fraction of data references directed at the
	// kernel's shared data region (beyond lock words). Default 0.
	SharedFraction float64
}

func (s ThreadSpec) withDefaults() ThreadSpec {
	if s.WorkingSetLines == 0 {
		s.WorkingSetLines = 64
	}
	if s.DriftProb == 0 {
		s.DriftProb = 0.002
	}
	return s
}

// Thread is a Topaz thread of control. Unlike a heavyweight process, it is
// only the thread of control plus its memory footprint; address-space
// state lives in AddressSpace.
type Thread struct {
	id    int
	spec  ThreadSpec
	prog  Program
	state ThreadState

	// source generates the thread's memory references.
	source *threadSource

	// proc is the processor currently running the thread (-1 if none);
	// lastProc is the affinity hint.
	proc     int
	lastProc int

	// instrLeft is the remaining budget of the current Compute action.
	instrLeft uint64

	// joiners are threads blocked in Join on this thread.
	joiners []*Thread

	// wokenFor remembers the mutex a condition-variable waiter must
	// reacquire when signalled.
	wokenFor *Mutex

	// Instructions counts instructions executed by this thread.
	Instructions uint64
	// Switches counts dispatches of this thread onto a processor.
	Switches uint64
	// Migrations counts dispatches onto a different processor than last
	// time.
	Migrations uint64

	space *AddressSpace
}

// ID returns the thread identifier.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's label.
func (t *Thread) Name() string { return t.spec.Name }

// State returns the scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// Space returns the thread's address space.
func (t *Thread) Space() *AddressSpace { return t.space }

// AddressSpace models a Topaz address space: a container for threads. An
// Ultrix address space supports exactly one thread; a Topaz address space
// any number ("multiple threads can coexist in a single Topaz address
// space", §4.1).
type AddressSpace struct {
	id     int
	name   string
	ultrix bool
	base   mbus.Addr
	bytes  uint32
	next   uint32
	nthr   int
}

// ID returns the address-space identifier.
func (a *AddressSpace) ID() int { return a.id }

// Name returns the address-space label.
func (a *AddressSpace) Name() string { return a.name }

// Ultrix reports whether this is a single-threaded Ultrix space.
func (a *AddressSpace) Ultrix() bool { return a.ultrix }

// Threads returns the number of threads created in the space.
func (a *AddressSpace) Threads() int { return a.nthr }

// carve allocates a private region for a thread's working set.
func (a *AddressSpace) carve(bytes uint32) (mbus.Addr, error) {
	if a.next+bytes > a.bytes {
		return 0, fmt.Errorf("topaz: address space %q exhausted", a.name)
	}
	base := a.base + mbus.Addr(a.next)
	a.next += bytes
	return base, nil
}

// threadSource produces a thread's reference stream: a private working set
// plus a configurable fraction of shared-region references, with forced
// references (lock words, kernel data) injected by the scheduler taking
// priority.
type threadSource struct {
	ws         *trace.WorkingSet
	shared     *trace.SharedRegion
	sharedFrac float64
	rng        *sim.Rand
	seq        uint32
}

func newThreadSource(base mbus.Addr, bytes uint32, spec ThreadSpec, shared *trace.SharedRegion, seed uint64) *threadSource {
	return &threadSource{
		ws: trace.NewWorkingSet(trace.WorkingSetConfig{
			Base:      base,
			Bytes:     bytes,
			SetLines:  spec.WorkingSetLines,
			DriftProb: spec.DriftProb,
			Seed:      seed,
		}),
		shared:     shared,
		sharedFrac: spec.SharedFraction,
		rng:        sim.NewRand(seed ^ 0xabcdef),
	}
}

// Next implements trace.Source.
func (s *threadSource) Next(kind trace.Kind) trace.Ref {
	if kind != trace.InstrRead && s.sharedFrac > 0 && s.rng.Bool(s.sharedFrac) {
		ref := trace.Ref{Kind: kind, Addr: s.shared.Slot(s.rng.Intn(s.shared.Slots))}
		if kind == trace.DataWrite {
			s.seq++
			ref.Data = s.seq
		}
		return ref
	}
	return s.ws.Next(kind)
}

var _ trace.Source = (*threadSource)(nil)
