package net

import (
	"bytes"
	"testing"

	"firefly/internal/obs"
	"firefly/internal/sim"
)

// run steps the segment n cycles.
func run(clock *sim.Clock, seg *Segment, n int) {
	for i := 0; i < n; i++ {
		clock.Tick()
		seg.Step()
	}
}

func TestFrameDeliveryAndTiming(t *testing.T) {
	clock := &sim.Clock{}
	seg := NewSegment(clock, Config{})
	var got []Frame
	var at sim.Cycle
	a := seg.Attach(nil)
	seg.Attach(func(f Frame) { got = append(got, f); at = clock.Now() })

	words := []uint32{1, 2, 3, 4}
	start := clock.Now()
	a.Send(Frame{Dst: 1, Words: words}, nil)
	run(clock, seg, 300)

	if len(got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(got))
	}
	if got[0].Src != 0 || got[0].Dst != 1 {
		t.Fatalf("frame src/dst = %d/%d, want 0/1", got[0].Src, got[0].Dst)
	}
	// 4 words at 32 cycles/word = 128 cycles of serialization; the frame
	// starts on the first step after Send.
	wire := at - start
	if wire < 128 || wire > 132 {
		t.Fatalf("frame crossed in %d cycles, want ~128", wire)
	}
	st := seg.Stats()
	if st.Frames.Value() != 1 || st.Delivered.Value() != 1 {
		t.Fatalf("stats: frames=%d delivered=%d", st.Frames.Value(), st.Delivered.Value())
	}
	if st.WordsOnWire.Value() != 4 {
		t.Fatalf("words on wire = %d, want 4", st.WordsOnWire.Value())
	}
}

func TestBusyDeferral(t *testing.T) {
	clock := &sim.Clock{}
	seg := NewSegment(clock, Config{})
	var order []int
	a := seg.Attach(nil)
	b := seg.Attach(nil)
	seg.Attach(func(f Frame) { order = append(order, f.Src) })

	a.Send(Frame{Dst: 2, Words: make([]uint32, 10)}, nil)
	run(clock, seg, 2) // a seizes the wire
	b.Send(Frame{Dst: 2, Words: make([]uint32, 10)}, nil)
	run(clock, seg, 2000)

	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("delivery order %v, want [0 1]", order)
	}
	if d := seg.Stats().Deferrals.Value(); d != 1 {
		t.Fatalf("deferrals = %d, want 1 (b waited for a)", d)
	}
	if c := seg.Stats().Collisions.Value(); c != 0 {
		t.Fatalf("collisions = %d, want 0 (carrier sense defers, no collision)", c)
	}
}

func TestCollisionBackoffResolves(t *testing.T) {
	clock := &sim.Clock{}
	seg := NewSegment(clock, Config{Seed: 7})
	delivered := 0
	a := seg.Attach(nil)
	b := seg.Attach(nil)
	seg.Attach(func(Frame) { delivered++ })

	// Both stations become ready in the same cycle: a collision, then
	// backoff separates them and both frames eventually cross.
	a.Send(Frame{Dst: 2, Words: make([]uint32, 8)}, nil)
	b.Send(Frame{Dst: 2, Words: make([]uint32, 8)}, nil)
	run(clock, seg, 50_000)

	if delivered != 2 {
		t.Fatalf("delivered %d frames, want 2", delivered)
	}
	if c := seg.Stats().Collisions.Value(); c == 0 {
		t.Fatal("expected at least one collision")
	}
	if ab := seg.Stats().Aborted.Value(); ab != 0 {
		t.Fatalf("aborted = %d, want 0", ab)
	}
}

func TestCollisionAbortAfterMaxAttempts(t *testing.T) {
	clock := &sim.Clock{}
	// Zero-width backoff window is impossible (slots+1), but with
	// MaxAttempts 1 the first collision abandons both frames.
	seg := NewSegment(clock, Config{MaxAttempts: 1})
	okA, okB := true, true
	a := seg.Attach(nil)
	b := seg.Attach(nil)
	a.Send(Frame{Dst: 1, Words: make([]uint32, 4)}, func(ok bool) { okA = ok })
	b.Send(Frame{Dst: 0, Words: make([]uint32, 4)}, func(ok bool) { okB = ok })
	run(clock, seg, 100)

	if okA || okB {
		t.Fatalf("done(ok) = %v/%v, want both false", okA, okB)
	}
	if ab := seg.Stats().Aborted.Value(); ab != 2 {
		t.Fatalf("aborted = %d, want 2", ab)
	}
}

func TestBroadcastSkipsSender(t *testing.T) {
	clock := &sim.Clock{}
	seg := NewSegment(clock, Config{})
	var rx []int
	for i := 0; i < 3; i++ {
		i := i
		seg.Attach(func(Frame) { rx = append(rx, i) })
	}
	seg.Station(1).Send(Frame{Dst: Broadcast, Words: []uint32{9}}, nil)
	run(clock, seg, 200)
	if len(rx) != 2 || rx[0] != 0 || rx[1] != 2 {
		t.Fatalf("broadcast reached %v, want [0 2]", rx)
	}
}

// dropEvery drops every nth delivery.
type dropEvery struct{ n, i int }

func (d *dropEvery) FrameDrop() bool {
	d.i++
	return d.i%d.n == 0
}

func TestInjectedDrops(t *testing.T) {
	clock := &sim.Clock{}
	seg := NewSegment(clock, Config{})
	got := 0
	a := seg.Attach(nil)
	seg.Attach(func(Frame) { got++ })
	seg.SetFaultInjector(&dropEvery{n: 2})

	for i := 0; i < 6; i++ {
		a.Send(Frame{Dst: 1, Words: []uint32{uint32(i)}}, nil)
	}
	run(clock, seg, 5000)
	if got != 3 {
		t.Fatalf("delivered %d frames, want 3 (half dropped)", got)
	}
	if d := seg.Stats().Dropped.Value(); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
}

func TestUnheardDelivery(t *testing.T) {
	clock := &sim.Clock{}
	seg := NewSegment(clock, Config{})
	a := seg.Attach(nil)
	seg.Attach(nil) // no handler
	a.Send(Frame{Dst: 1, Words: []uint32{1}}, nil)
	run(clock, seg, 200)
	if u := seg.Stats().Unheard.Value(); u != 1 {
		t.Fatalf("unheard = %d, want 1", u)
	}
}

// contend runs a many-station contention storm and returns the JSONL
// trace bytes.
func contend(seed uint64) []byte {
	clock := &sim.Clock{}
	seg := NewSegment(clock, Config{Seed: seed})
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	seg.SetTracer(obs.NewTracer(sink))
	for i := 0; i < 4; i++ {
		seg.Attach(func(Frame) {})
	}
	// Everyone keeps a frame queued: maximal collision pressure.
	var refill func(st *Station) func(bool)
	refill = func(st *Station) func(bool) {
		return func(bool) {
			if clock.Now() < 200_000 {
				st.Send(Frame{Dst: (st.ID() + 1) % 4, Words: make([]uint32, 16)}, refill(st))
			}
		}
	}
	for i := 0; i < 4; i++ {
		st := seg.Station(i)
		st.Send(Frame{Dst: (i + 1) % 4, Words: make([]uint32, 16)}, refill(st))
	}
	for clock.Now() < 250_000 {
		clock.Tick()
		seg.Step()
	}
	sink.Close()
	return buf.Bytes()
}

func TestSegmentDeterministicPerSeed(t *testing.T) {
	a, b := contend(3), contend(3)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different trace streams")
	}
	c := contend(4)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical collision schedules")
	}
}

func TestUtilizationAndIdle(t *testing.T) {
	clock := &sim.Clock{}
	seg := NewSegment(clock, Config{})
	if seg.NextEvent(clock.Now()) != sim.Never {
		t.Fatal("fresh segment should be idle")
	}
	a := seg.Attach(nil)
	seg.Attach(func(Frame) {})
	a.Send(Frame{Dst: 1, Words: make([]uint32, 100)}, nil)
	if seg.NextEvent(clock.Now()) == sim.Never {
		t.Fatal("segment with a queued frame is not idle")
	}
	run(clock, seg, 4000)
	if seg.NextEvent(clock.Now()) != sim.Never {
		t.Fatal("segment should drain to idle")
	}
	u := seg.Utilization()
	// 3200 busy cycles out of 4000.
	if u < 0.7 || u > 0.9 {
		t.Fatalf("utilization = %.2f, want ~0.8", u)
	}
}
