// Package mod2 models the Modula-2+ runtime storage system (§4.2):
// reference-counted garbage collection with a concurrent collector.
//
// "REFs are similar to POINTERs, except that the compiler and the runtime
// system keep track of the number of extant copies of a REF. When this
// number becomes zero, the referent is safely and automatically
// deallocated. The reference counts are kept in the objects themselves.
// Assignments to parameters and local variables on the stack are not
// reference counted... REFs on the stack are identified by a conservative
// scan. The collector runs concurrently with the application... A
// separate trace and sweep collector handles the reclamation of circular
// or self-referential structures."
//
// The heap reproduces that design: heap-to-heap reference assignments
// maintain counts; stack references are an uncounted root set scanned by
// the collector; a zero count queues an object on the zero-count table,
// freed once no root holds it; and an incremental trace-and-sweep
// collector with a Dijkstra-style write barrier reclaims cycles while the
// mutator keeps running — on another processor, which is the §6 claim the
// experiment measures ("the collector itself runs as a separate thread on
// another processor").
package mod2

import (
	"fmt"

	"firefly/internal/topaz"
)

// color is the tricolor marking state.
type color uint8

const (
	white color = iota // not yet reached this cycle
	grey               // reached, children pending
	black              // reached, children scanned
)

// edge is one outgoing reference: the target slot plus the target's
// allocation generation. A slot freed and reallocated during the same
// collection cycle gets a new generation, so stale edges held by
// not-yet-swept garbage can neither resurrect nor corrupt the new tenant.
type edge struct {
	slot int
	gen  uint64
}

// Object is one heap cell: a reference count, outgoing references, and
// the collector's mark state.
type Object struct {
	slot  int
	gen   uint64
	rc    int
	refs  []edge
	col   color
	alive bool
}

// Slot returns the object's heap index.
func (o *Object) Slot() int { return o.slot }

// Refs returns the object's outgoing reference targets (slot numbers).
func (o *Object) Refs() []int {
	out := make([]int, len(o.refs))
	for i, e := range o.refs {
		out[i] = e.slot
	}
	return out
}

// RC returns the current reference count (heap references only).
func (o *Object) RC() int { return o.rc }

// Stats counts heap activity.
type Stats struct {
	Allocs     uint64
	RCFrees    uint64 // freed by the reference counter
	CycleFrees uint64 // freed by the trace-and-sweep collector
	Assigns    uint64 // counted reference assignments
	GCCycles   uint64 // completed collector cycles
	Barriers   uint64 // write-barrier shades
}

// Heap is the shared Modula-2+ heap. All mutation happens under Mu — the
// runtime's allocation lock — from inside Topaz threads, so the
// collector's concurrency is real simulated concurrency.
type Heap struct {
	// Mu is the runtime lock; programs take it around heap operations.
	Mu *topaz.Mutex

	objects []*Object
	free    []int
	roots   map[int]int // slot -> root count (uncounted stack references)
	zct     map[int]bool

	// collector state
	collecting bool
	frontier   []int
	sweepPos   int

	stats Stats
}

// NewHeap returns a heap of the given capacity with its runtime lock
// allocated from the kernel.
func NewHeap(k *topaz.Kernel, slots int) *Heap {
	if slots <= 0 {
		panic("mod2: heap needs capacity")
	}
	h := &Heap{
		Mu:    k.NewMutex("mod2-heap"),
		roots: make(map[int]int),
		zct:   make(map[int]bool),
	}
	h.objects = make([]*Object, slots)
	for i := slots - 1; i >= 0; i-- {
		h.objects[i] = &Object{slot: i}
		h.free = append(h.free, i)
	}
	return h
}

// Stats returns a snapshot of the heap counters.
func (h *Heap) Stats() Stats { return h.stats }

// Live returns the number of allocated objects.
func (h *Heap) Live() int { return len(h.objects) - len(h.free) }

// Object returns the object in a slot (alive or not).
func (h *Heap) Object(slot int) *Object { return h.objects[slot] }

// Alloc allocates an object and roots it (the allocating frame holds the
// only reference, on its stack). Returns -1 when the heap is full.
// Objects allocated during a collection cycle are born black so the
// in-progress sweep cannot reap them.
func (h *Heap) Alloc() int {
	if len(h.free) == 0 {
		return -1
	}
	slot := h.free[len(h.free)-1]
	h.free = h.free[:len(h.free)-1]
	o := h.objects[slot]
	o.alive = true
	o.gen++
	o.rc = 0
	o.refs = o.refs[:0]
	o.col = white
	if h.collecting {
		o.col = black
	}
	h.roots[slot]++
	h.stats.Allocs++
	return slot
}

// AddRoot records an additional stack reference to slot (passing a REF
// as a parameter). Stack references are not counted, but creating one
// during a collection shades the target: a white object newly held only
// by a stack frame must not be swept.
func (h *Heap) AddRoot(slot int) {
	h.mustBeAlive(slot, "AddRoot")
	h.roots[slot]++
	h.barrier(slot)
}

// DropRoot removes one stack reference. An unrooted object with a zero
// count is reclaimed immediately (the zero-count-table check the real
// runtime did with its conservative stack scan).
func (h *Heap) DropRoot(slot int) {
	h.mustBeAlive(slot, "DropRoot")
	if h.roots[slot] == 0 {
		panic(fmt.Sprintf("mod2: DropRoot on unrooted slot %d", slot))
	}
	h.roots[slot]--
	if h.roots[slot] == 0 {
		delete(h.roots, slot)
		if h.objects[slot].rc == 0 {
			h.reclaim(slot, &h.stats.RCFrees)
		}
	}
}

// Link adds a heap reference from -> to (a counted REF assignment into a
// heap object's field).
func (h *Heap) Link(from, to int) {
	h.mustBeAlive(from, "Link from")
	h.mustBeAlive(to, "Link to")
	h.objects[from].refs = append(h.objects[from].refs, edge{slot: to, gen: h.objects[to].gen})
	h.objects[to].rc++
	delete(h.zct, to)
	h.stats.Assigns++
	h.barrier(to)
}

// Unlink removes one heap reference from -> to. A count reaching zero
// with no root reclaims the object.
func (h *Heap) Unlink(from, to int) {
	h.mustBeAlive(from, "Unlink from")
	o := h.objects[from]
	found := -1
	for i, r := range o.refs {
		if r.slot == to && r.gen == h.objects[to].gen {
			found = i
			break
		}
	}
	if found < 0 {
		panic(fmt.Sprintf("mod2: Unlink of absent edge %d -> %d", from, to))
	}
	removed := o.refs[found]
	o.refs = append(o.refs[:found], o.refs[found+1:]...)
	h.stats.Assigns++
	h.decrementEdge(removed)
}

// decrementEdge drops the count behind a removed edge, ignoring stale
// edges whose target slot has been freed (and possibly reallocated) since
// the edge was created.
func (h *Heap) decrementEdge(e edge) {
	t := h.objects[e.slot]
	if !t.alive || t.gen != e.gen {
		return
	}
	h.decrement(e.slot)
}

func (h *Heap) decrement(slot int) {
	t := h.objects[slot]
	if !t.alive {
		return
	}
	t.rc--
	if t.rc < 0 {
		panic(fmt.Sprintf("mod2: negative reference count on slot %d", slot))
	}
	if t.rc == 0 {
		if h.roots[slot] > 0 {
			h.zct[slot] = true // zero count but stack-reachable: defer
			return
		}
		h.reclaim(slot, &h.stats.RCFrees)
	}
}

// reclaim frees an object and cascades the decrement to its children.
func (h *Heap) reclaim(slot int, counter *uint64) {
	o := h.objects[slot]
	if !o.alive {
		return
	}
	o.alive = false
	delete(h.zct, slot)
	delete(h.roots, slot)
	children := append([]edge(nil), o.refs...)
	o.refs = o.refs[:0]
	o.rc = 0
	h.free = append(h.free, slot)
	*counter++
	// Drop from the in-progress frontier lazily: markBatch skips dead
	// entries.
	for _, c := range children {
		h.decrementEdge(c)
	}
}

func (h *Heap) mustBeAlive(slot int, op string) {
	if slot < 0 || slot >= len(h.objects) || !h.objects[slot].alive {
		panic(fmt.Sprintf("mod2: %s on dead slot %d", op, slot))
	}
}

// barrier is the Dijkstra-style incremental-update write barrier: while a
// collection is in progress, the target of every stored reference is
// shaded so the concurrent marker cannot lose it.
func (h *Heap) barrier(slot int) {
	if !h.collecting {
		return
	}
	o := h.objects[slot]
	if o.col == white {
		o.col = grey
		h.frontier = append(h.frontier, slot)
		h.stats.Barriers++
	}
}

// --- collector ---

// StartCycle begins a trace: every live object is whitened (allocations
// during the cycle are born black) and the root set is shaded grey — the
// conservative stack scan.
func (h *Heap) StartCycle() {
	if h.collecting {
		panic("mod2: StartCycle during a cycle")
	}
	h.collecting = true
	h.frontier = h.frontier[:0]
	for _, o := range h.objects {
		if o.alive {
			o.col = white
		}
	}
	// Scan roots in slot order (the conservative stack scan) so marking
	// order — and therefore every statistic — is deterministic.
	for slot, o := range h.objects {
		if o.alive && h.roots[slot] > 0 && o.col == white {
			o.col = grey
			h.frontier = append(h.frontier, slot)
		}
	}
	h.sweepPos = 0
}

// Collecting reports whether a cycle is in progress.
func (h *Heap) Collecting() bool { return h.collecting }

// MarkBatch scans up to n grey objects, shading their children. It
// returns true when the frontier is empty (marking complete).
func (h *Heap) MarkBatch(n int) bool {
	for i := 0; i < n && len(h.frontier) > 0; i++ {
		slot := h.frontier[len(h.frontier)-1]
		h.frontier = h.frontier[:len(h.frontier)-1]
		o := h.objects[slot]
		if !o.alive || o.col == black {
			continue
		}
		o.col = black
		for _, c := range o.refs {
			t := h.objects[c.slot]
			if t.alive && t.gen == c.gen && t.col == white {
				t.col = grey
				h.frontier = append(h.frontier, c.slot)
			}
		}
	}
	return len(h.frontier) == 0
}

// SweepBatch frees up to n white objects (unreachable, including cycles
// the reference counts can never reclaim). It returns true when the sweep
// has covered the heap, ending the cycle.
func (h *Heap) SweepBatch(n int) bool {
	if len(h.frontier) != 0 {
		panic("mod2: sweep before marking finished")
	}
	freed := 0
	for h.sweepPos < len(h.objects) && freed < n {
		o := h.objects[h.sweepPos]
		h.sweepPos++
		// Rooted objects are never swept regardless of color: the
		// conservative stack scan always wins (defense in depth on top of
		// the AddRoot barrier).
		if o.alive && o.col == white && h.roots[o.slot] == 0 {
			h.sweepFree(o.slot)
			freed++
		}
	}
	if h.sweepPos >= len(h.objects) {
		h.collecting = false
		h.stats.GCCycles++
		return true
	}
	return false
}

// sweepFree frees a white object, dropping the counts behind its edges.
// Generation checks make this safe against slots freed and reallocated
// earlier in the same sweep; a decrement that zeroes another white
// object's count simply reclaims it through the reference counter a
// moment before the sweep would have.
func (h *Heap) sweepFree(slot int) {
	o := h.objects[slot]
	o.alive = false
	delete(h.zct, slot)
	children := append([]edge(nil), o.refs...)
	o.refs = o.refs[:0]
	o.rc = 0
	h.free = append(h.free, slot)
	h.stats.CycleFrees++
	for _, c := range children {
		h.decrementEdge(c)
	}
}

// CheckInvariants verifies heap consistency: reference counts equal the
// number of incoming heap edges, free slots are dead, no live object
// references a dead one. It returns an error describing the first
// violation. Call it only at quiescence (no collection in progress).
func (h *Heap) CheckInvariants() error {
	if h.collecting {
		return fmt.Errorf("mod2: CheckInvariants during collection")
	}
	counts := make([]int, len(h.objects))
	for _, o := range h.objects {
		if !o.alive {
			continue
		}
		for _, c := range o.refs {
			t := h.objects[c.slot]
			if !t.alive || t.gen != c.gen {
				return fmt.Errorf("mod2: live slot %d holds a stale edge to slot %d", o.slot, c.slot)
			}
			counts[c.slot]++
		}
	}
	for _, o := range h.objects {
		if o.alive && o.rc != counts[o.slot] {
			return fmt.Errorf("mod2: slot %d rc=%d but %d incoming edges", o.slot, o.rc, counts[o.slot])
		}
	}
	seen := make(map[int]bool)
	for _, s := range h.free {
		if h.objects[s].alive {
			return fmt.Errorf("mod2: free slot %d is alive", s)
		}
		if seen[s] {
			return fmt.Errorf("mod2: slot %d on free list twice", s)
		}
		seen[s] = true
	}
	return nil
}

// Reachable returns the set of slots reachable from the roots.
func (h *Heap) Reachable() map[int]bool {
	out := make(map[int]bool)
	var stack []int
	for s := range h.roots {
		if h.objects[s].alive {
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[s] {
			continue
		}
		out[s] = true
		for _, c := range h.objects[s].refs {
			t := h.objects[c.slot]
			if t.alive && t.gen == c.gen && !out[c.slot] {
				stack = append(stack, c.slot)
			}
		}
	}
	return out
}
