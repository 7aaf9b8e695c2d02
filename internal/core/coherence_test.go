package core

import (
	"fmt"
	"testing"

	"firefly/internal/mbus"
	"firefly/internal/sim"
)

// checkInvariants verifies the global coherence invariants of the Firefly
// protocol at quiescence:
//
//  1. every valid cached copy of an address holds the same value;
//  2. at most one cache holds an address Dirty, and then no other cache
//     holds it at all (dirty implies exclusive);
//  3. if an address is held by two or more caches, every copy is clean;
//  4. if no cached copy is dirty, memory agrees with the cached value.
func checkInvariants(t *testing.T, r *rig, addrs []mbus.Addr) {
	t.Helper()
	for _, a := range addrs {
		a = a.Line()
		var holders []int
		var dirty []int
		var vals []uint32
		for i, c := range r.caches {
			if !c.Contains(a) {
				continue
			}
			holders = append(holders, i)
			w, _ := c.PeekWord(a)
			vals = append(vals, w)
			if c.LineState(a).IsDirty() {
				dirty = append(dirty, i)
			}
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[0] {
				t.Fatalf("addr %v: divergent copies %v in caches %v", a, vals, holders)
			}
		}
		if len(dirty) > 1 {
			t.Fatalf("addr %v: dirty in multiple caches %v", a, dirty)
		}
		if len(dirty) == 1 && len(holders) > 1 {
			t.Fatalf("addr %v: dirty in cache %d but shared by %v", a, dirty[0], holders)
		}
		if len(dirty) == 0 && len(holders) > 0 {
			if m := r.mem.Peek(a); m != vals[0] {
				t.Fatalf("addr %v: clean copies hold %#x but memory holds %#x", a, vals[0], m)
			}
		}
	}
}

// TestSequentialLinearizability drives random single-outstanding accesses
// across several caches and checks every read against a flat reference
// memory. With one access in flight at a time, bus order equals submission
// order, so the reference model is exact.
func TestSequentialLinearizability(t *testing.T) {
	const nCaches = 4
	r := newRig(t, nCaches, Firefly{}, 16)
	rng := sim.NewRand(12345)
	ref := make(map[mbus.Addr]uint32)
	// 24 addresses over 16 sets: plenty of conflict misses.
	addrs := make([]mbus.Addr, 24)
	for i := range addrs {
		addrs[i] = mbus.Addr(i * 4)
	}

	for step := 0; step < 5000; step++ {
		ci := rng.Intn(nCaches)
		a := addrs[rng.Intn(len(addrs))]
		if rng.Bool(0.4) {
			v := uint32(step + 1)
			partial := rng.Bool(0.2)
			r.complete(t, ci, Access{Write: true, Partial: partial, Addr: a, Data: v})
			ref[a] = v
		} else {
			got := r.complete(t, ci, Access{Addr: a})
			if got != ref[a] {
				t.Fatalf("step %d: cache %d read %v = %#x, want %#x", step, ci, a, got, ref[a])
			}
		}
	}
	checkInvariants(t, r, addrs)
}

// TestConcurrentCoherence lets every cache keep an access in flight
// simultaneously (arbitrating on the bus like real processors) and checks
// the global invariants at quiescence points.
func TestConcurrentCoherence(t *testing.T) {
	const nCaches = 5
	r := newRig(t, nCaches, Firefly{}, 16)
	rng := sim.NewRand(999)
	addrs := make([]mbus.Addr, 20)
	for i := range addrs {
		addrs[i] = mbus.Addr(i * 4)
	}

	submit := func(ci int) {
		a := addrs[rng.Intn(len(addrs))]
		if rng.Bool(0.5) {
			r.caches[ci].Submit(Access{Write: true, Partial: rng.Bool(0.2), Addr: a, Data: uint32(rng.Uint64())})
		} else {
			r.caches[ci].Submit(Access{Addr: a})
		}
	}

	for round := 0; round < 200; round++ {
		for ci := 0; ci < nCaches; ci++ {
			submit(ci)
		}
		// Drain until all quiesce.
		for cycles := 0; ; cycles++ {
			busy := false
			for _, c := range r.caches {
				if c.Busy() {
					busy = true
				}
			}
			if !busy {
				break
			}
			if cycles > 10000 {
				t.Fatal("system did not quiesce")
			}
			r.run(1)
		}
		checkInvariants(t, r, addrs)
	}
}

// TestOverlappedAccessProgress verifies no deadlock or starvation when all
// caches contend for the same line continuously. Round-robin arbitration
// is used: with the hardware's fixed priority, a saturating high-priority
// cache legitimately starves lower ports (the paper notes this: "This
// reduces the delays incurred by high priority caches at the expense of
// those with lower priority", §5.2) — TestFixedPriorityStarvation below
// documents that behaviour.
func TestOverlappedAccessProgress(t *testing.T) {
	const nCaches = 3
	r := newRigArb(t, nCaches, Firefly{}, 16, mbus.NewRoundRobin())
	const hot = mbus.Addr(0x40)
	done := make([]int, nCaches)
	for ci := 0; ci < nCaches; ci++ {
		r.caches[ci].Submit(Access{Write: true, Addr: hot, Data: uint32(ci)})
	}
	for cycles := 0; cycles < 2000; cycles++ {
		r.run(1)
		for ci, c := range r.caches {
			if !c.Busy() {
				done[ci]++
				if c.Submit(Access{Write: true, Addr: hot, Data: uint32(cycles)}) {
					done[ci]++
				}
			}
		}
	}
	for ci, n := range done {
		if n == 0 {
			t.Fatalf("cache %d starved on hot line", ci)
		}
	}
	checkInvariants(t, r, []mbus.Addr{hot})
}

// TestFixedPriorityStarvation documents the hardware's fixed-priority
// arbitration behaviour: under saturating same-line write traffic the
// highest port monopolizes the bus.
func TestFixedPriorityStarvation(t *testing.T) {
	const nCaches = 3
	r := newRig(t, nCaches, Firefly{}, 16)
	done := make([]int, nCaches)
	for ci := 0; ci < nCaches; ci++ {
		r.caches[ci].Submit(Access{Write: true, Addr: 0x40, Data: uint32(ci)})
	}
	for cycles := 0; cycles < 1000; cycles++ {
		r.run(1)
		for ci, c := range r.caches {
			if !c.Busy() {
				done[ci]++
				c.Submit(Access{Write: true, Addr: 0x40, Data: uint32(cycles)})
			}
		}
	}
	if done[0] == 0 {
		t.Fatal("highest-priority cache made no progress")
	}
	if done[2] > done[0] {
		t.Fatalf("fixed priority inverted: port 2 completed %d > port 0's %d", done[2], done[0])
	}
}

func TestHotLineStaysCoherentUnderUpdateStorm(t *testing.T) {
	// All caches share one line; each write must propagate to every copy.
	const nCaches = 4
	r := newRig(t, nCaches, Firefly{}, 16)
	const hot = mbus.Addr(0x200)
	for ci := 0; ci < nCaches; ci++ {
		r.read(t, ci, hot)
	}
	for i := 0; i < 100; i++ {
		writer := i % nCaches
		val := uint32(1000 + i)
		r.write(t, writer, hot, val)
		for ci := 0; ci < nCaches; ci++ {
			w, ok := r.caches[ci].PeekWord(hot)
			if !ok {
				t.Fatalf("iter %d: cache %d lost the shared line", i, ci)
			}
			if w != val {
				t.Fatalf("iter %d: cache %d holds %d, want %d", i, ci, w, val)
			}
		}
		if m := r.mem.Peek(hot); m != val {
			t.Fatalf("iter %d: memory holds %d, want %d", i, m, val)
		}
	}
	// All those writes were write-throughs: no victim traffic, no fills
	// beyond the initial ones.
	st := r.caches[0].Stats()
	if st.VictimWrites != 0 {
		t.Fatalf("update storm produced victim writes: %+v", st)
	}
}

func ExampleFirefly() {
	clock := &sim.Clock{}
	c := NewMicroVAXCache(clock, Firefly{})
	fmt.Println(c.Protocol().Name(), c.Lines(), "lines")
	// Output: firefly 4096 lines
}
