package machine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"firefly/internal/coherence"
	"firefly/internal/core"
	"firefly/internal/cpu"
	"firefly/internal/mbus"
	"firefly/internal/model"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

func TestConfigDefaults(t *testing.T) {
	m := New(MicroVAXConfig(2))
	cfg := m.Config()
	if cfg.CacheLines != core.MicroVAXLines {
		t.Fatalf("cache lines = %d", cfg.CacheLines)
	}
	if m.Memory().Bytes() != 16<<20 {
		t.Fatalf("memory = %d", m.Memory().Bytes())
	}
	cv := New(CVAXConfig(2))
	if cv.Config().CacheLines != core.CVAXLines {
		t.Fatalf("CVAX cache lines = %d", cv.Config().CacheLines)
	}
	if cv.Memory().Bytes() != 128<<20 {
		t.Fatalf("CVAX memory = %d", cv.Memory().Bytes())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := map[string]func(*Config){
		"no processors":       func(c *Config) { c.Processors = 0 },
		"negative processors": func(c *Config) { c.Processors = -1 },
		"100 processors":      func(c *Config) { c.Processors = 100 },
		"3 cache lines":       func(c *Config) { c.CacheLines = 3 },
		"-4 cache lines":      func(c *Config) { c.CacheLines = -4 },
		"3 line words":        func(c *Config) { c.LineWords = 3 },
		"-2 line words":       func(c *Config) { c.LineWords = -2 },
	}
	for name, mutate := range bad {
		cfg := MicroVAXConfig(2)
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: Validate accepted the config", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			New(cfg)
		}()
	}
	// Zero geometry means the defaults.
	if err := MicroVAXConfig(2).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestRunSecondsRejectsBadDurations(t *testing.T) {
	m := New(MicroVAXConfig(1))
	for _, s := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("RunSeconds(%v) did not panic", s)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, fmt.Sprint(s)) {
					t.Fatalf("RunSeconds(%v) panic %q does not name the value", s, msg)
				}
			}()
			m.RunSeconds(s)
		}()
	}
	if now := m.Clock().Now(); now != 0 {
		t.Fatalf("rejected durations advanced the clock to %d", now)
	}
}

func TestRunSecondsAdvancesClock(t *testing.T) {
	m := New(MicroVAXConfig(1))
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0, SharedReadFraction: 0})
	m.RunSeconds(0.001)
	if got := m.Clock().Now().Seconds(); math.Abs(got-0.001) > 1e-9 {
		t.Fatalf("clock at %v s, want 0.001", got)
	}
}

func TestWarmupClearsStats(t *testing.T) {
	m := New(MicroVAXConfig(2))
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.1})
	m.Warmup(10_000)
	if m.Bus().Stats().TotalOps() != 0 {
		t.Fatal("warmup left bus stats")
	}
	if m.CPU(0).Stats().Ticks != 0 {
		t.Fatal("warmup left cpu stats")
	}
	if m.Cache(0).ValidLines() == 0 {
		t.Fatal("warmup flushed cache contents")
	}
}

// TestSingleCPURateNearModel checks the simulated one-CPU reference rate
// against the model's zero-load accounting (the paper's 850K expectation),
// using the model's exact M.
func TestSingleCPURateNearModel(t *testing.T) {
	m := New(MicroVAXConfig(1))
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0, SharedReadFraction: 0})
	m.Warmup(200_000)
	m.RunSeconds(0.02)
	rep := m.Report()
	got := rep.PerCPU[0].Total / 1000

	// The simulator's misses cost a full bus operation each (2 ticks),
	// slightly more than the paper's 1-tick expected-column accounting but
	// with far fewer victim writes (write-throughs leave lines clean), so
	// the rate lands near the 850K expectation.
	p := model.MicroVAX()
	want := p.ZeroLoadRefsPerSec() / 1000
	if math.Abs(got-want)/want > 0.10 {
		t.Fatalf("1-CPU rate = %.0fK, want within 10%% of %.0fK", got, want)
	}
}

// TestFiveCPULoadNearModel checks the five-processor bus load against the
// model's prediction of ~0.4.
func TestFiveCPULoadNearModel(t *testing.T) {
	m := New(MicroVAXConfig(5))
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05})
	m.Warmup(200_000)
	m.RunSeconds(0.02)
	rep := m.Report()
	want := model.MicroVAX().LoadFor(5)
	if math.Abs(rep.BusLoad-want) > 0.08 {
		t.Fatalf("bus load = %.3f, want ~%.2f", rep.BusLoad, want)
	}
}

func TestMoreProcessorsMoreLoadLessPerCPU(t *testing.T) {
	run := func(n int) (load, perCPU float64) {
		m := New(MicroVAXConfig(n))
		m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05})
		m.Warmup(100_000)
		m.RunSeconds(0.01)
		rep := m.Report()
		return rep.BusLoad, rep.MeanCPU().Total
	}
	l2, r2 := run(2)
	l8, r8 := run(8)
	if l8 <= l2 {
		t.Fatalf("load did not grow: %v -> %v", l2, l8)
	}
	if r8 >= r2 {
		t.Fatalf("per-CPU rate did not fall: %v -> %v", r2, r8)
	}
}

func TestReportConsistency(t *testing.T) {
	m := New(MicroVAXConfig(3))
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.1})
	m.Warmup(50_000)
	m.RunSeconds(0.005)
	rep := m.Report()
	if rep.Processors != 3 || len(rep.PerCPU) != 3 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	if math.Abs(rep.Seconds-0.005) > 1e-9 {
		t.Fatalf("interval = %v", rep.Seconds)
	}
	for i, c := range rep.PerCPU {
		if c.Total <= 0 || c.Reads <= 0 || c.Writes <= 0 {
			t.Fatalf("cpu %d rates empty: %+v", i, c)
		}
		if math.Abs(c.Reads+c.Writes-c.Total) > 1 {
			t.Fatalf("cpu %d reads+writes != total", i)
		}
	}
	sum := rep.TotalRefsPerSec()
	var manual float64
	for _, c := range rep.PerCPU {
		manual += c.Total
	}
	if math.Abs(sum-manual) > 1e-6 {
		t.Fatal("TotalRefsPerSec mismatch")
	}
	if !strings.Contains(rep.String(), "bus load") {
		t.Fatal("report rendering broken")
	}
}

func TestMeanCPUEmptyReport(t *testing.T) {
	var r Report
	if mean := r.MeanCPU(); mean.Total != 0 {
		t.Fatal("empty mean not zero")
	}
}

func TestSharingProducesMSharedTraffic(t *testing.T) {
	m := New(MicroVAXConfig(4))
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.1, ShareFraction: 0.3, SharedReadFraction: 0.3})
	m.Warmup(100_000)
	m.RunSeconds(0.01)
	mean := m.Report().MeanCPU()
	if mean.MBusWritesShared == 0 {
		t.Fatal("no MShared write-throughs despite sharing")
	}
	// Firefly: shared lines stay clean, so victim writes are rare relative
	// to write-throughs ("The number of victim writes is much lower than
	// predicted by our simple model, since write-throughs leave cache
	// lines clean").
	if mean.MBusVictims > mean.MBusWritesShared {
		t.Fatalf("victims %v exceed shared write-throughs %v", mean.MBusVictims, mean.MBusWritesShared)
	}
}

func TestNoSharingNoMSharedWrites(t *testing.T) {
	m := New(MicroVAXConfig(2))
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0, SharedReadFraction: 0})
	m.Warmup(50_000)
	m.RunSeconds(0.005)
	mean := m.Report().MeanCPU()
	if mean.MBusWritesShared != 0 {
		t.Fatalf("MShared writes with zero sharing: %v", mean.MBusWritesShared)
	}
}

func TestBaselineProtocolMachines(t *testing.T) {
	// Every baseline protocol must run the same machine workload without
	// deadlock and with plausible output.
	for _, proto := range coherence.All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			cfg := MicroVAXConfig(3)
			cfg.Protocol = proto
			m := New(cfg)
			m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.2, SharedReadFraction: 0.2})
			m.Warmup(50_000)
			m.RunSeconds(0.005)
			rep := m.Report()
			if rep.MeanCPU().Total == 0 {
				t.Fatal("machine made no progress")
			}
		})
	}
}

func TestWTISaturatesBusFirst(t *testing.T) {
	// The paper: write-through "is not a practical protocol for more than
	// a few processors, because the substantial write traffic will rapidly
	// saturate the bus."
	load := func(proto core.Protocol) float64 {
		cfg := MicroVAXConfig(4)
		cfg.Protocol = proto
		m := New(cfg)
		m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.1, ShareFraction: 0.1, SharedReadFraction: 0.1})
		m.Warmup(50_000)
		m.RunSeconds(0.005)
		return m.Report().BusLoad
	}
	firefly := load(core.Firefly{})
	wti := load(coherence.WriteThroughInvalidate{})
	if wti <= firefly*1.5 {
		t.Fatalf("WTI load %v not clearly above Firefly %v", wti, firefly)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Report {
		m := New(MicroVAXConfig(3))
		m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.1})
		m.Run(100_000)
		return m.Report()
	}
	a, b := run(), run()
	if a.BusLoad != b.BusLoad || a.TotalRefsPerSec() != b.TotalRefsPerSec() {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestBusOpsByKind(t *testing.T) {
	cfg := MicroVAXConfig(2)
	cfg.Protocol = coherence.MESI{}
	m := New(cfg)
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.3, SharedReadFraction: 0.3})
	m.Run(100_000)
	ops := m.BusOpsByKind()
	if ops[mbus.MRead] == 0 {
		t.Fatal("no reads recorded")
	}
	if ops[mbus.MReadOwn] == 0 {
		t.Fatal("MESI machine issued no ownership reads")
	}
}

func TestMultiWordLineMachine(t *testing.T) {
	cfg := MicroVAXConfig(3)
	cfg.LineWords = 4
	m := New(cfg)
	if m.Cache(0).LineWords() != 4 {
		t.Fatalf("line words = %d", m.Cache(0).LineWords())
	}
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.1, ShareFraction: 0.1, SharedReadFraction: 0.1})
	m.Warmup(50_000)
	m.RunSeconds(0.005)
	rep := m.Report()
	if rep.MeanCPU().Total == 0 {
		t.Fatal("multi-word machine made no progress")
	}
	// MBus read ops must exceed line fills by the 4x word factor.
	cst := m.Cache(0).Stats()
	if cst.FillOps != cst.Fills*4 {
		t.Fatalf("fill ops %d != 4 * fills %d", cst.FillOps, cst.Fills)
	}
}

func TestDeviceStepping(t *testing.T) {
	m := New(MicroVAXConfig(1))
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.1, ShareFraction: 0, SharedReadFraction: 0})
	count := 0
	m.AddDevice(stepFunc(func() { count++ }))
	m.Run(500)
	if count != 500 {
		t.Fatalf("device stepped %d times, want 500", count)
	}
}

type stepFunc func()

func (f stepFunc) Step()                             { f() }
func (f stepFunc) NextEvent(now sim.Cycle) sim.Cycle { return now + 1 }
func (f stepFunc) SkipCycles(uint64)                 {}

func TestCVAXMachineRuns(t *testing.T) {
	m := New(CVAXConfig(4))
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.05, ShareFraction: 0.1, SharedReadFraction: 0.1})
	m.Warmup(50_000)
	m.RunSeconds(0.005)
	rep := m.Report()
	if rep.MeanCPU().Total == 0 {
		t.Fatal("CVAX machine made no progress")
	}
	// CVAX ticks are 100 ns; with the same bus, per-CPU load must stay in
	// the same ballpark as the MicroVAX ("approximately the same bus load
	// per processor").
	if rep.BusLoad <= 0 || rep.BusLoad >= 1 {
		t.Fatalf("implausible CVAX load %v", rep.BusLoad)
	}
}

func TestVariantSelection(t *testing.T) {
	cfg := MicroVAXConfig(1)
	cfg.Variant = cpu.CVAX78034()
	m := New(cfg)
	if m.CPU(0).Variant().Name != "CVAX 78034" {
		t.Fatalf("variant = %q", m.CPU(0).Variant().Name)
	}
	// Variant-driven cache default: a CVAX variant with no explicit
	// CacheLines gets the 16384-line cache.
	if m.Cache(0).Lines() != core.CVAXLines {
		t.Fatalf("cache lines = %d", m.Cache(0).Lines())
	}
}
