package qbus

import (
	"testing"

	"firefly/internal/mbus"
	"firefly/internal/sim"
)

// scriptedDMAInjector answers DMAWordFault by consultation index.
type scriptedDMAInjector struct {
	nxmAt  map[int]bool
	stalls map[int]uint64
	calls  int
}

func (s *scriptedDMAInjector) DMAWordFault(addr mbus.Addr) (bool, uint64) {
	c := s.calls
	s.calls++
	if s.nxmAt[c] {
		return true, 0
	}
	return false, s.stalls[c]
}

// alwaysFaultBus faults the first n MBus operations with parity errors.
type alwaysFaultBus struct{ n int }

func (a *alwaysFaultBus) OpFault(op mbus.OpKind, addr mbus.Addr) (mbus.FaultKind, uint64) {
	if a.n == 0 {
		return mbus.FaultNone, 0
	}
	a.n--
	return mbus.FaultParity, 0
}

func TestInjectedNXMAbortsTransfer(t *testing.T) {
	b := newBench(t, 1, 4)
	b.maps.MapRange(0, 0x100000, 4096)
	inj := &scriptedDMAInjector{nxmAt: map[int]bool{2: true}}
	b.engine.SetFaultPolicy(inj, 4, 8)

	done, faulted := false, false
	b.engine.Submit(&Transfer{
		Device: "test", ToMemory: true, QAddr: 0, Words: 4,
		Data:   []uint32{10, 20, 30, 40},
		OnDone: func(fault bool) { done, faulted = true, fault },
	})
	b.run(300)
	if !done || !faulted {
		t.Fatalf("done=%v faulted=%v, want aborted completion", done, faulted)
	}
	st := b.engine.Stats()
	if st.NXMFaults.Value() != 1 {
		t.Fatalf("NXMFaults = %d, want 1", st.NXMFaults.Value())
	}
	// Words 0 and 1 landed before the abort; words 2 and 3 must not.
	if got := b.m.Memory().Peek(0x100004); got != 20 {
		t.Fatalf("pre-abort word lost: %d", got)
	}
	if got := b.m.Memory().Peek(0x100008); got != 0 {
		t.Fatalf("post-abort word written: %d", got)
	}
	if b.engine.NextEvent(b.m.Clock().Now()) != sim.Never {
		t.Fatal("engine not idle after NXM abort")
	}
}

func TestInjectedStallDelaysTransfer(t *testing.T) {
	const stall = 40
	run := func(withStall bool) (doneAt uint64, faulted bool) {
		b := newBench(t, 1, 4)
		b.maps.MapRange(0, 0x100000, 4096)
		if withStall {
			b.engine.SetFaultPolicy(&scriptedDMAInjector{stalls: map[int]uint64{1: stall}}, 4, 8)
		}
		b.engine.Submit(&Transfer{
			Device: "test", ToMemory: true, QAddr: 0, Words: 4,
			Data: make([]uint32, 4),
			OnDone: func(fault bool) {
				doneAt, faulted = uint64(b.m.Clock().Now()), fault
			},
		})
		b.run(500)
		if doneAt == 0 {
			t.Fatal("transfer did not finish")
		}
		return doneAt, faulted
	}
	clean, faulted := run(false)
	stalled, faulted2 := run(true)
	if faulted || faulted2 {
		t.Fatal("stall must not report a fault")
	}
	if stalled < clean+stall {
		t.Fatalf("stalled transfer finished at %d, clean at %d, want >= %d cycles delay",
			stalled, clean, stall)
	}
}

func TestDMABusFaultRetrySucceeds(t *testing.T) {
	b := newBench(t, 1, 4)
	b.maps.MapRange(0, 0x100000, 4096)
	b.m.Bus().SetFaultInjector(&alwaysFaultBus{n: 1})
	b.engine.SetFaultPolicy(nil, 2, 8)

	done, faulted := false, false
	b.engine.Submit(&Transfer{
		Device: "test", ToMemory: true, QAddr: 0, Words: 2,
		Data:   []uint32{7, 8},
		OnDone: func(fault bool) { done, faulted = true, fault },
	})
	b.run(500)
	if !done || faulted {
		t.Fatalf("done=%v faulted=%v, want clean retry recovery", done, faulted)
	}
	st := b.engine.Stats()
	if st.BusFaults.Value() != 1 || st.Retries.Value() != 1 || st.Aborted.Value() != 0 {
		t.Fatalf("busfaults/retries/aborted = %d/%d/%d, want 1/1/0",
			st.BusFaults.Value(), st.Retries.Value(), st.Aborted.Value())
	}
	if got := b.m.Memory().Peek(0x100000); got != 7 {
		t.Fatalf("retried word lost: %d", got)
	}
}

func TestDMABusFaultExhaustionAborts(t *testing.T) {
	b := newBench(t, 1, 4)
	b.maps.MapRange(0, 0x100000, 4096)
	b.m.Bus().SetFaultInjector(&alwaysFaultBus{n: 100})
	b.engine.SetFaultPolicy(nil, 2, 4)

	done, faulted := false, false
	b.engine.Submit(&Transfer{
		Device: "test", ToMemory: true, QAddr: 0, Words: 2,
		Data:   []uint32{7, 8},
		OnDone: func(fault bool) { done, faulted = true, fault },
	})
	b.run(2000)
	if !done || !faulted {
		t.Fatalf("done=%v faulted=%v, want exhaustion abort", done, faulted)
	}
	st := b.engine.Stats()
	if st.Aborted.Value() != 1 {
		t.Fatalf("Aborted = %d, want 1", st.Aborted.Value())
	}
	// Initial attempt + 2 retries, all faulted.
	if st.BusFaults.Value() != 3 || st.Retries.Value() != 2 {
		t.Fatalf("busfaults/retries = %d/%d, want 3/2",
			st.BusFaults.Value(), st.Retries.Value())
	}
	if st.WordsMoved.Value() != 0 {
		t.Fatalf("faulted transfer moved %d words", st.WordsMoved.Value())
	}
	if b.engine.NextEvent(b.m.Clock().Now()) != sim.Never {
		t.Fatal("engine not idle after exhaustion abort")
	}
}

func TestBackToBackFaultedTransfers(t *testing.T) {
	// Two aborted transfers then a clean one: callbacks fire in order,
	// per-transfer fault state resets, and the final transfer moves every
	// word (satellite regression for residual pos/retry/stall state).
	b := newBench(t, 1, 4)
	b.maps.MapRange(0, 0x100000, 4096)
	// First transfer NXMs at word 1, second at word 0 (calls 0,1 are
	// transfer 1's words; call 2 is transfer 2's first word).
	inj := &scriptedDMAInjector{nxmAt: map[int]bool{1: true, 2: true}}
	b.engine.SetFaultPolicy(inj, 4, 8)

	var results []bool
	submit := func(qaddr uint32, words int) {
		data := make([]uint32, words)
		for i := range data {
			data[i] = uint32(qaddr) + uint32(i) + 1
		}
		b.engine.Submit(&Transfer{
			Device: "test", ToMemory: true, QAddr: qaddr, Words: words, Data: data,
			OnDone: func(fault bool) { results = append(results, fault) },
		})
	}
	submit(0, 2)
	submit(64, 2)
	submit(128, 3)
	b.run(1000)

	if len(results) != 3 {
		t.Fatalf("callbacks = %d, want 3", len(results))
	}
	if !results[0] || !results[1] || results[2] {
		t.Fatalf("fault flags = %v, want [true true false]", results)
	}
	st := b.engine.Stats()
	if st.Transfers.Value() != 3 || st.NXMFaults.Value() != 2 {
		t.Fatalf("transfers/nxm = %d/%d, want 3/2",
			st.Transfers.Value(), st.NXMFaults.Value())
	}
	// The clean transfer's words all arrived.
	for i := 0; i < 3; i++ {
		want := uint32(128 + i + 1)
		if got := b.m.Memory().Peek(mbus.Addr(0x100000 + 128 + i*4)); got != want {
			t.Fatalf("clean transfer word %d = %d, want %d", i, got, want)
		}
	}
	if b.engine.NextEvent(b.m.Clock().Now()) != sim.Never {
		t.Fatal("engine not idle after back-to-back faulted transfers")
	}
}

func TestDiskWriteNXMDoesNotCommit(t *testing.T) {
	// Satellite regression: before OnDone reported fault status, a
	// NXM-aborted DMA read for a disk write would silently commit a
	// partial buffer to the media. The sector must keep its contents and
	// the fault must be counted, while the completion interrupt still
	// reaches the host.
	b := newBench(t, 1, 4)
	b.maps.MapRange(0, 0x100000, 4096)
	disk := NewDisk(b.m.Clock(), b.m.Bus(), b.engine, DiskConfig{SeekCycles: 1})
	b.m.AddDevice(disk)

	golden := make([]uint32, sectorWords)
	for i := range golden {
		golden[i] = uint32(1000 + i)
	}
	disk.LoadSector(5, golden)

	// Fault the DMA read partway through the sector.
	b.engine.SetFaultPolicy(&scriptedDMAInjector{nxmAt: map[int]bool{40: true}}, 4, 8)
	done := false
	disk.Write(5, 0, func() { done = true })
	b.run(20_000)

	if !done {
		t.Fatal("faulted disk write never completed")
	}
	st := disk.Stats()
	if st.Faults.Value() != 1 || st.Writes.Value() != 0 {
		t.Fatalf("faults/writes = %d/%d, want 1/0", st.Faults.Value(), st.Writes.Value())
	}
	if st.Interrupts.Value() != 1 {
		t.Fatalf("interrupts = %d, want 1 (error status still interrupts)", st.Interrupts.Value())
	}
	for i, want := range golden {
		if got := disk.PeekSector(5)[i]; got != want {
			t.Fatalf("sector word %d corrupted: %d, want %d", i, got, want)
		}
	}

	// The same write with no injection commits normally.
	b.engine.SetFaultPolicy(nil, 0, 0)
	for i := 0; i < sectorWords; i++ {
		b.m.Memory().Poke(mbus.Addr(0x100000+i*4), uint32(2000+i))
	}
	done = false
	disk.Write(5, 0, func() { done = true })
	b.run(20_000)
	if !done {
		t.Fatal("clean disk write never completed")
	}
	if got := disk.Stats().Writes.Value(); got != 1 {
		t.Fatalf("clean write not counted: %d", got)
	}
	if got := disk.PeekSector(5)[0]; got != 2000 {
		t.Fatalf("clean write not committed: %d", got)
	}
}
