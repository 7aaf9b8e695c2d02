package machine

import (
	"testing"

	"firefly/internal/fault"
	"firefly/internal/qbus"
)

// quiescentDeviceRig builds a machine with every processor halted, a
// fault plan, and the QBus DMA engine and disk attached but idle: no
// part owns time, so Run covers any window in one jump.
func quiescentDeviceRig() *Machine {
	cfg := MicroVAXConfig(2)
	cfg.Faults = &fault.Config{BusParityRate: 1e-4, DMAStallRate: 2e-3}
	m := New(cfg)
	haltAll(m)
	maps := &qbus.MapRegisters{}
	maps.MapRange(0, 0x40000, 1<<15)
	eng := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
	pl := m.Faults()
	eng.SetFaultPolicy(pl, pl.MaxRetries(), pl.BackoffCycles())
	disk := qbus.NewDisk(m.Clock(), m.Bus(), eng, qbus.DiskConfig{SeekCycles: 5_000})
	m.AddDevice(eng)
	m.AddDevice(disk)
	return m
}

// TestStepZeroAllocsEventScan extends the hot-loop allocation contract
// to the big-step path: the event scan, the bulk skip, and the devices'
// SkipCycles accounting must all run without allocating, both while a
// device owns time (a disk mid-seek) and when the machine is fully
// quiescent.
func TestStepZeroAllocsEventScan(t *testing.T) {
	// A disk mid-seek with a horizon far beyond the measured window, so
	// every measured Run is pure scan+skip.
	long := New(MicroVAXConfig(2))
	long.AttachSyntheticLoad(stdLoad)
	maps := &qbus.MapRegisters{}
	maps.MapRange(0, 0x40000, 1<<15)
	eng := qbus.NewEngine(long.Clock(), long.Bus(), maps, 0)
	slowDisk := qbus.NewDisk(long.Clock(), long.Bus(), eng, qbus.DiskConfig{SeekCycles: 1 << 40})
	long.AddDevice(eng)
	long.AddDevice(slowDisk)
	long.Run(10_000)
	haltAll(long)
	slowDisk.Read(3, 0, nil)
	long.Run(16) // pick up the command and settle into the seek
	avg := testing.AllocsPerRun(500, func() { long.Run(5_000) })
	if avg != 0 {
		t.Fatalf("event scan over a seeking disk allocates %.2f times per Run, want 0", avg)
	}

	// Fully quiescent: the scan returns Never and Run covers the window
	// in one jump.
	m := quiescentDeviceRig()
	m.Run(40_000)
	avg = testing.AllocsPerRun(500, func() { m.Run(100_000) })
	if avg != 0 {
		t.Fatalf("event scan of a quiescent machine allocates %.2f times per Run, want 0", avg)
	}
}
