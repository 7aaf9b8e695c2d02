package net

import (
	"bytes"
	"fmt"
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

// scheduledSend is one frame a station hands the wire at a given cycle.
type scheduledSend struct {
	at       sim.Cycle
	src, dst int
	words    int
}

// skipRun drives one segment through a fixed send schedule for the
// given number of cycles and returns its stats, its JSONL event stream,
// a log of every delivery and completion, and the cycles it skipped.
// With skip set it bulk-advances over quiet cycles the way the cluster's
// wire replay does: SkipCycles up to one cycle before the next segment
// event or scheduled send, then one Step on that cycle. overshoot moves
// every skip that many cycles further, past the event it must stop
// before — the broken variant the test must catch.
func skipRun(sched []scheduledSend, cycles sim.Cycle, skip bool, overshoot sim.Cycle) (Stats, []byte, string, uint64) {
	clock := &sim.Clock{}
	seg := NewSegment(clock, Config{WordCycles: 4, GapCycles: 8, SlotCycles: 16, MaxAttempts: 3, Seed: 11})
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	seg.SetTracer(obs.NewTracer(sink))
	var log bytes.Buffer
	const stations = 5
	for i := 0; i < stations; i++ {
		i := i
		seg.Attach(func(f Frame) { fmt.Fprintf(&log, "%d rx %d<-%d\n", clock.Now(), i, f.Src) })
	}
	next := 0
	var skipped uint64
	for clock.Now() < cycles {
		now := clock.Now()
		if skip {
			ev := seg.NextEvent(now)
			if next < len(sched) {
				ev = sim.EarliestEvent(ev, sched[next].at)
			}
			if ev > now+1 {
				target := ev - 1 + overshoot
				if target > cycles {
					target = cycles
				}
				clock.Advance(target - now)
				seg.SkipCycles(uint64(target - now))
				skipped += uint64(target - now)
				continue
			}
		}
		now = clock.Tick()
		for ; next < len(sched) && sched[next].at <= now; next++ {
			s := sched[next]
			seg.Station(s.src).Send(Frame{Dst: s.dst, Words: make([]uint32, s.words)}, func(ok bool) {
				fmt.Fprintf(&log, "%d done %d ok=%v\n", clock.Now(), s.src, ok)
			})
		}
		seg.Step()
	}
	sink.Close()
	return seg.Stats(), buf.Bytes(), log.String(), skipped
}

// TestSkipCyclesMatchesStep pins the SkipCycles contract the cluster's
// event-driven wire replay relies on: a segment that skips every quiet
// stretch to one cycle before NextEvent (or the next Send) matches one
// stepped cycle by cycle — counters, event stream, and call-out log —
// under random traffic with collisions, MaxAttempts aborts, deferrals,
// and broadcast. Skipping one cycle too far must diverge.
func TestSkipCyclesMatchesStep(t *testing.T) {
	rng := sim.NewRand(23)
	var sched []scheduledSend
	at := sim.Cycle(1)
	for len(sched) < 600 {
		at += sim.Cycle(rng.Intn(40))
		// Bursts of simultaneous sends from distinct stations collide.
		burst := 1 + rng.Intn(3)
		for b := 0; b < burst; b++ {
			src := (b*2 + rng.Intn(2)) % 5
			dst := (src + 1 + rng.Intn(4)) % 5
			if rng.Intn(6) == 0 {
				dst = Broadcast
			}
			sched = append(sched, scheduledSend{at: at, src: src, dst: dst, words: 1 + rng.Intn(6)})
		}
	}
	cycles := at + 5_000

	refStats, refJSONL, refLog, _ := skipRun(sched, cycles, false, 0)
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"collisions", refStats.Collisions.Value()},
		{"aborted", refStats.Aborted.Value()},
		{"deferrals", refStats.Deferrals.Value()},
		{"delivered", refStats.Delivered.Value()},
	} {
		if c.v == 0 {
			t.Fatalf("reference run saw no %s; the comparison proves nothing", c.name)
		}
	}
	if refStats.Delivered.Value() <= refStats.Frames.Value() {
		t.Fatal("reference run delivered no broadcast frame")
	}

	gotStats, gotJSONL, gotLog, skipped := skipRun(sched, cycles, true, 0)
	if skipped == 0 {
		t.Fatal("skipping run skipped nothing")
	}
	if fmt.Sprintf("%+v", gotStats) != fmt.Sprintf("%+v", refStats) {
		t.Errorf("stats diverged:\nskip %+v\nstep %+v", gotStats, refStats)
	}
	if !bytes.Equal(gotJSONL, refJSONL) {
		t.Errorf("JSONL diverged (%d vs %d bytes)", len(gotJSONL), len(refJSONL))
	}
	if gotLog != refLog {
		t.Error("delivery/completion log diverged")
	}

	badStats, badJSONL, badLog, _ := skipRun(sched, cycles, true, 1)
	if fmt.Sprintf("%+v", badStats) == fmt.Sprintf("%+v", refStats) &&
		bytes.Equal(badJSONL, refJSONL) && badLog == refLog {
		t.Fatal("skipping one cycle past NextEvent went undetected")
	}
}
