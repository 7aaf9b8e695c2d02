package qbus

import (
	"testing"

	"firefly/internal/core"
	"firefly/internal/machine"
	"firefly/internal/mbus"
	"firefly/internal/sim"
)

// bench builds a machine with halted CPUs plus the QBus DMA plumbing, so
// tests drive memory traffic purely from the I/O side.
type bench struct {
	m      *machine.Machine
	maps   *MapRegisters
	engine *Engine
}

func newBench(t testing.TB, nproc int, wordCycles uint64) *bench {
	t.Helper()
	m := machine.New(machine.MicroVAXConfig(nproc))
	for _, p := range m.Processors() {
		p.Halt()
	}
	maps := &MapRegisters{}
	engine := NewEngine(m.Clock(), m.Bus(), maps, wordCycles)
	m.AddDevice(engine)
	return &bench{m: m, maps: maps, engine: engine}
}

func (b *bench) run(cycles uint64) { b.m.Run(cycles) }

func TestMapRegisters(t *testing.T) {
	var m MapRegisters
	m.Map(0, 0x100000)
	m.Map(1, 0x200000)
	a, err := m.Translate(0x1f4) // page 0 offset 0x1f4
	if err != nil || a != 0x1001f4 {
		t.Fatalf("translate = %v, %v", a, err)
	}
	a, err = m.Translate(512 + 4) // page 1 offset 4
	if err != nil || a != 0x200004 {
		t.Fatalf("translate = %v, %v", a, err)
	}
	if _, err := m.Translate(3 * 512); err == nil {
		t.Fatal("unmapped page translated")
	}
	m.Unmap(0)
	if _, err := m.Translate(0); err == nil {
		t.Fatal("unmapped register still translates")
	}
	if _, err := m.Translate(1 << 23); err == nil {
		t.Fatal("23-bit address translated")
	}
}

func TestMapRegisterPanics(t *testing.T) {
	var m MapRegisters
	for _, f := range []func(){
		func() { m.Map(-1, 0) },
		func() { m.Map(NumMapRegisters, 0) },
		func() { m.Map(0, 0x123) }, // unaligned
		func() { m.Unmap(-1) },
		func() { m.MapRange(100, 0, 512) }, // window not page aligned
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMapRange(t *testing.T) {
	var m MapRegisters
	m.MapRange(0, 0x300000, 3*512)
	for _, q := range []uint32{0, 512, 1024, 1535} {
		a, err := m.Translate(q)
		if err != nil || a != mbus.Addr(0x300000+q) {
			t.Fatalf("translate(%d) = %v, %v", q, a, err)
		}
	}
}

func TestDMAWriteToMemory(t *testing.T) {
	b := newBench(t, 1, 4)
	b.maps.MapRange(0, 0x100000, 4096)
	data := []uint32{10, 20, 30, 40}
	done, faulted := false, false
	b.engine.Submit(&Transfer{
		Device: "test", ToMemory: true, QAddr: 0, Words: 4, Data: data,
		OnDone: func(fault bool) { done, faulted = true, fault },
	})
	b.run(200)
	if !done {
		t.Fatal("transfer did not complete")
	}
	if faulted {
		t.Fatal("clean transfer reported a fault")
	}
	for i, want := range data {
		if got := b.m.Memory().Peek(mbus.Addr(0x100000 + i*4)); got != want {
			t.Fatalf("word %d = %d, want %d", i, got, want)
		}
	}
	st := b.engine.Stats()
	if st.WordsMoved.Value() != 4 || st.Transfers.Value() != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDMAReadFromMemory(t *testing.T) {
	b := newBench(t, 1, 4)
	b.maps.MapRange(0, 0x100000, 4096)
	for i := 0; i < 4; i++ {
		b.m.Memory().Poke(mbus.Addr(0x100000+i*4), uint32(100+i))
	}
	data := make([]uint32, 4)
	b.engine.Submit(&Transfer{Device: "test", ToMemory: false, QAddr: 0, Words: 4, Data: data})
	b.run(200)
	for i := range data {
		if data[i] != uint32(100+i) {
			t.Fatalf("read back %v", data)
		}
	}
}

func TestDMAReadSeesDirtyCacheData(t *testing.T) {
	// Coherent I/O: a DMA read must observe data still dirty in a CPU
	// cache (the cache supplies it on the bus).
	b := newBench(t, 1, 4)
	b.maps.MapRange(0, 0x100000, 4096)
	cache := b.m.Cache(0)
	// Make the line dirty in the cache: direct write (clean) then hit.
	submit := func(data uint32) {
		cache.Submit(core.Access{Write: true, Addr: 0x100000, Data: data})
		for cache.Busy() {
			b.run(1)
		}
	}
	submit(1)
	submit(42) // Exclusive -> Dirty; memory still holds 1
	if b.m.Memory().Peek(0x100000) == 42 {
		t.Fatal("test precondition broken: memory already updated")
	}
	data := make([]uint32, 1)
	b.engine.Submit(&Transfer{Device: "test", ToMemory: false, QAddr: 0, Words: 1, Data: data})
	b.run(100)
	if data[0] != 42 {
		t.Fatalf("DMA read %d, want dirty cached 42", data[0])
	}
}

func TestDMAWriteUpdatesCaches(t *testing.T) {
	// A DMA write to a line cached by a CPU updates the cached copy
	// (Firefly snoopers take MWrite data).
	b := newBench(t, 1, 4)
	b.maps.MapRange(0, 0x100000, 4096)
	cache := b.m.Cache(0)
	cache.Submit(core.Access{Addr: 0x100000})
	for cache.Busy() {
		b.run(1)
	}
	b.engine.Submit(&Transfer{
		Device: "test", ToMemory: true, QAddr: 0, Words: 1, Data: []uint32{77},
	})
	b.run(100)
	if w, ok := cache.PeekWord(0x100000); !ok || w != 77 {
		t.Fatalf("cached word = %d,%v, want 77", w, ok)
	}
}

func TestDMAPacing(t *testing.T) {
	b := newBench(t, 1, 20)
	b.maps.MapRange(0, 0x100000, 4096)
	var doneAt uint64
	data := make([]uint32, 10)
	b.engine.Submit(&Transfer{
		Device: "test", ToMemory: true, QAddr: 0, Words: 10, Data: data,
		OnDone: func(bool) { doneAt = uint64(b.m.Clock().Now()) },
	})
	b.run(2000)
	if doneAt == 0 {
		t.Fatal("transfer did not finish")
	}
	if doneAt < 9*20 {
		t.Fatalf("10-word transfer at 20 cycles/word finished too fast: %d", doneAt)
	}
}

func TestQBusSaturationLoad(t *testing.T) {
	// A saturated QBus at default pacing must consume ~30% of MBus
	// bandwidth (the paper: "When fully loaded, the QBus consumes about
	// 30% of the main memory bandwidth").
	b := newBench(t, 1, 0) // default pacing
	b.maps.MapRange(0, 0x100000, 1<<20)
	var refill func(bool)
	words := 256
	refill = func(bool) {
		b.engine.Submit(&Transfer{
			Device: "flood", ToMemory: true, QAddr: 0, Words: words,
			Data: make([]uint32, words), OnDone: refill,
		})
	}
	refill(false)
	b.run(500_000)
	load := b.m.Bus().Stats().Load()
	if load < 0.25 || load > 0.36 {
		t.Fatalf("saturated QBus load = %.3f, want ~0.30", load)
	}
}

func TestEngineMapFaultAborts(t *testing.T) {
	b := newBench(t, 1, 4)
	// No mapping installed.
	done, faulted := false, false
	b.engine.Submit(&Transfer{
		Device: "test", ToMemory: true, QAddr: 0, Words: 1, Data: []uint32{1},
		OnDone: func(fault bool) { done, faulted = true, fault },
	})
	b.run(100)
	if !done {
		t.Fatal("faulted transfer never completed")
	}
	if !faulted {
		t.Fatal("NXM abort reported success to the device")
	}
	if b.engine.Stats().MapFaults.Value() != 1 {
		t.Fatal("map fault not counted")
	}
	if b.engine.NextEvent(b.m.Clock().Now()) != sim.Never {
		t.Fatal("engine not idle after aborted transfer")
	}
}

func TestEngineSubmitValidation(t *testing.T) {
	b := newBench(t, 1, 4)
	for _, tr := range []*Transfer{
		{Words: 0},
		{Words: 2, Data: []uint32{1}},
		{Words: 1, Data: []uint32{1}, QAddr: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad transfer %+v accepted", tr)
				}
			}()
			b.engine.Submit(tr)
		}()
	}
}

func TestDiskWriteReadRoundTrip(t *testing.T) {
	b := newBench(t, 1, 4)
	b.maps.MapRange(0, 0x100000, 1<<16)
	disk := NewDisk(b.m.Clock(), b.m.Bus(), b.engine, DiskConfig{SeekCycles: 100})
	b.m.AddDevice(disk)

	// Prepare a buffer in memory, write it to LBA 5, clobber memory, read
	// it back to a different buffer.
	for i := 0; i < sectorWords; i++ {
		b.m.Memory().Poke(mbus.Addr(0x100000+i*4), uint32(i)*3+1)
	}
	phase := 0
	disk.Write(5, 0, func() { phase = 1 })
	b.run(20_000)
	if phase != 1 {
		t.Fatalf("write did not complete; queue=%d", disk.QueueLen())
	}
	disk.Read(5, 4096, func() { phase = 2 })
	b.run(20_000)
	if phase != 2 {
		t.Fatal("read did not complete")
	}
	for i := 0; i < sectorWords; i++ {
		got := b.m.Memory().Peek(mbus.Addr(0x100000 + 4096 + i*4))
		if got != uint32(i)*3+1 {
			t.Fatalf("word %d = %d after round trip", i, got)
		}
	}
	st := disk.Stats()
	if st.Reads.Value() != 1 || st.Writes.Value() != 1 || st.Interrupts.Value() != 2 {
		t.Fatalf("disk stats = %+v", st)
	}
}

func TestDiskInterruptsIOProcessor(t *testing.T) {
	b := newBench(t, 1, 4)
	b.maps.MapRange(0, 0x100000, 1<<16)
	disk := NewDisk(b.m.Clock(), b.m.Bus(), b.engine, DiskConfig{SeekCycles: 50})
	b.m.AddDevice(disk)
	disk.Read(0, 0, nil)
	b.run(20_000)
	if got := b.m.CPU(0).TakeInterrupts(); len(got) != 1 {
		t.Fatalf("I/O processor interrupts = %v", got)
	}
}

func TestDiskValidation(t *testing.T) {
	b := newBench(t, 1, 4)
	disk := NewDisk(b.m.Clock(), b.m.Bus(), b.engine, DiskConfig{Sectors: 100})
	for _, f := range []func(){
		func() { disk.Read(100, 0, nil) },
		func() { disk.Write(200, 0, nil) },
		func() { disk.LoadSector(100, make([]uint32, sectorWords)) },
		func() { disk.LoadSector(0, make([]uint32, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDiskSeekDelay(t *testing.T) {
	b := newBench(t, 1, 4)
	b.maps.MapRange(0, 0x100000, 1<<16)
	disk := NewDisk(b.m.Clock(), b.m.Bus(), b.engine, DiskConfig{SeekCycles: 5000})
	b.m.AddDevice(disk)
	var doneAt uint64
	disk.Read(0, 0, func() { doneAt = uint64(b.m.Clock().Now()) })
	b.run(30_000)
	if doneAt < 5000 {
		t.Fatalf("read finished before the seek: %d", doneAt)
	}
}

func TestEthernetTransmit(t *testing.T) {
	b := newBench(t, 1, 4)
	b.maps.MapRange(0, 0x100000, 1<<16)
	eth := NewEthernet(b.m.Clock(), b.m.Bus(), b.engine, EthernetConfig{WireWordCycles: 8})
	b.m.AddDevice(eth)
	for i := 0; i < 16; i++ {
		b.m.Memory().Poke(mbus.Addr(0x100000+i*4), uint32(0xdead0000+i))
	}
	var wire Packet
	eth.OnWire = func(p Packet) { wire = p }
	eth.Transmit(0, 16, nil)
	b.run(10_000)
	if len(wire.Words) != 16 {
		t.Fatalf("wire packet %d words", len(wire.Words))
	}
	for i, w := range wire.Words {
		if w != uint32(0xdead0000+i) {
			t.Fatalf("wire word %d = %#x", i, w)
		}
	}
	if eth.Stats().Transmitted.Value() != 1 {
		t.Fatal("transmit not counted")
	}
}

func TestEthernetReceive(t *testing.T) {
	b := newBench(t, 1, 4)
	b.maps.MapRange(0, 0x100000, 1<<16)
	eth := NewEthernet(b.m.Clock(), b.m.Bus(), b.engine, EthernetConfig{WireWordCycles: 8})
	b.m.AddDevice(eth)
	in := Packet{Words: []uint32{7, 8, 9}}
	got := false
	eth.Receive(in, 512, func(Packet) { got = true })
	b.run(10_000)
	if !got {
		t.Fatal("receive did not complete")
	}
	for i, want := range in.Words {
		if b.m.Memory().Peek(mbus.Addr(0x100000+512+i*4)) != want {
			t.Fatalf("received word %d wrong", i)
		}
	}
	if got := b.m.CPU(0).TakeInterrupts(); len(got) != 1 {
		t.Fatalf("interrupts = %v", got)
	}
}

func TestEthernetWireTime(t *testing.T) {
	// 10 Mbit/s: a longer packet takes proportionally longer.
	time := func(words int) uint64 {
		b := newBench(t, 1, 1)
		b.maps.MapRange(0, 0x100000, 1<<16)
		eth := NewEthernet(b.m.Clock(), b.m.Bus(), b.engine, EthernetConfig{})
		b.m.AddDevice(eth)
		var doneAt uint64
		eth.Transmit(0, words, func(Packet) { doneAt = uint64(b.m.Clock().Now()) })
		b.run(100_000)
		return doneAt
	}
	short, long := time(10), time(300)
	if long < short*10 {
		t.Fatalf("wire time not proportional: %d vs %d", short, long)
	}
}

func TestEthernetValidation(t *testing.T) {
	b := newBench(t, 1, 4)
	eth := NewEthernet(b.m.Clock(), b.m.Bus(), b.engine, EthernetConfig{})
	for _, f := range []func(){
		func() { eth.Transmit(0, 0, nil) },
		func() { eth.Transmit(0, 1000, nil) },
		func() { eth.Receive(Packet{}, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
