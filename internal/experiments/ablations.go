package experiments

import (
	"fmt"
	"math"

	"firefly/internal/coherence"
	"firefly/internal/core"
	"firefly/internal/cpu"
	"firefly/internal/machine"
	"firefly/internal/mbus"
	"firefly/internal/model"
	"firefly/internal/qbus"
	"firefly/internal/rpc"
	"firefly/internal/sim"
	"firefly/internal/stats"
	"firefly/internal/topaz"
	"firefly/internal/trace"
	"firefly/internal/workload"
)

// ProtocolComparison runs the full protocol suite over a sharing sweep
// and reports bus load and delivered per-CPU performance. The expected
// shape (§5.1): write-through invalidate saturates the bus first;
// invalidation protocols degrade as true sharing grows (invalidated data
// must be reloaded); the update protocols (Firefly, Dragon) hold up.
func ProtocolComparison(cfg Config) Outcome {
	cycles := cfg.cycles(300_000, 3_000_000)
	shares := []float64{0, 0.1, 0.3}
	const nproc = 4

	headers := []string{"protocol"}
	for _, s := range shares {
		headers = append(headers, fmt.Sprintf("S=%.1f", s))
	}
	t := stats.NewTable(
		fmt.Sprintf("Coherence protocols on a %d-CPU Firefly (per-CPU K refs/sec @ bus load)", nproc),
		headers...)
	// Every protocol x share combination is an independent machine: run
	// the full cross product as sweep points and assemble the table rows
	// in submission order.
	protos := coherence.All()
	cells := Sweep(cfg.workers(), len(protos)*len(shares), func(i int) string {
		proto, s := protos[i/len(shares)], shares[i%len(shares)]
		cfg := machine.MicroVAXConfig(nproc)
		cfg.Protocol = proto
		m := machine.New(cfg)
		m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.15, ShareFraction: s, SharedReadFraction: s})
		m.Warmup(cycles / 5)
		m.Run(cycles)
		rep := m.Report()
		return fmt.Sprintf("%.0f@%.2f", rep.MeanCPU().Total/1000, rep.BusLoad)
	})
	for pi, proto := range protos {
		row := append([]string{proto.Name()}, cells[pi*len(shares):(pi+1)*len(shares)]...)
		t.AddRow(row...)
	}
	text := t.String() + `
Reading the table: higher K refs/sec is better; the @load shows the bus
pressure that produced it. Write-through-invalidate burns the bus at any
sharing level; the ownership/invalidation protocols lose ground as S
grows (reload misses); Firefly and Dragon track each other, as the paper
suggests ("The Xerox Dragon uses a similar scheme").
`
	return Outcome{ID: "protocols", Title: "Coherence protocol comparison", Text: text}
}

// MigrationAblation measures the cost of process migration under
// conditional write-through: with affinity off, migrated threads leave
// their writeable data in two caches and every write becomes a bus
// write-through until the old copies are displaced (§5.1).
func MigrationAblation(cfg Config) Outcome {
	warmup := cfg.cycles(100_000, 400_000)
	measure := cfg.cycles(800_000, 8_000_000)

	// Threads with purely private, write-heavy working sets: the only
	// source of write-through traffic is a migrated thread whose data is
	// resident in two caches. Yields invite rescheduling every ~400
	// instructions.
	run := func(dispatch topaz.DispatchPolicy) (migrations uint64, wtPerKInstr float64, kRefs float64) {
		m := machine.New(machine.MicroVAXConfig(4))
		k := topaz.NewKernel(m, topaz.Config{Quantum: 600, Dispatch: dispatch, Seed: 5})
		for i := 0; i < 8; i++ {
			rng := sim.NewRand(uint64(i)*131 + 17)
			k.Fork(topaz.LoopProgram(1<<30, func(int) []topaz.Action {
				// Jittered compute lengths break the lockstep that a
				// perfectly symmetric yield pattern would fall into.
				return []topaz.Action{
					topaz.Compute{Instructions: 250 + uint64(rng.Intn(300))},
					topaz.Yield{},
				}
			}), topaz.ThreadSpec{
				Name:            fmt.Sprintf("job%d", i),
				WorkingSetLines: 256,
				DriftProb:       0.01,
			}, nil)
		}
		m.Run(warmup)
		m.ResetStats()
		before := k.Stats().Migrations
		m.Run(measure)
		rep := m.Report()
		mean := rep.MeanCPU()
		var instr uint64
		for _, c := range rep.PerCPU {
			instr += c.Instructions
		}
		wt := (mean.MBusWritesShared + mean.MBusWritesClean) * rep.Seconds * float64(rep.Processors)
		return k.Stats().Migrations - before, wt / float64(instr) * 1000, mean.Total / 1000
	}

	type migResult struct {
		migrations uint64
		wtPerK     float64
		kRefs      float64
	}
	policies := []topaz.DispatchPolicy{topaz.MigrationAverse{}, topaz.OldestFirst{}}
	res := SweepItems(cfg.workers(), policies, func(dispatch topaz.DispatchPolicy) migResult {
		mig, wt, rate := run(dispatch)
		return migResult{mig, wt, rate}
	})
	migOn, wtOn, rateOn := res[0].migrations, res[0].wtPerK, res[0].kRefs
	migOff, wtOff, rateOff := res[1].migrations, res[1].wtPerK, res[1].kRefs

	t := stats.NewTable("Scheduler migration avoidance (Topaz policy vs naive FIFO)",
		"policy", "migrations", "write-throughs/K instr", "per-CPU K refs/s")
	t.AddRow("avoid migration", fmt.Sprintf("%d", migOn), fmt.Sprintf("%.1f", wtOn), fmt.Sprintf("%.0f", rateOn))
	t.AddRow("naive (migrate freely)", fmt.Sprintf("%d", migOff), fmt.Sprintf("%.1f", wtOff), fmt.Sprintf("%.0f", rateOff))
	text := t.String() + fmt.Sprintf(`
Affinity cut migrations %dx. "If processes are allowed to move freely
between processors, the number of unnecessary writes could be
significant, since most of the writeable data for a process will be in
both the old and the new cache until the data is displaced" (§5.1).
`, max64(1, migOff/max64(1, migOn)))
	return Outcome{ID: "migration", Title: "Migration ablation", Text: text}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// CVAXSpeedup compares the second-version Firefly against the original on
// the same workload. The paper: "the upgrade has improved execution
// speeds by factors of 2.0 to 2.5."
func CVAXSpeedup(cfg Config) Outcome {
	cycles := cfg.cycles(600_000, 6_000_000)

	measure := func(cfg machine.Config, miss float64) (instrPerSec float64, loadPerCPU float64) {
		m := machine.New(cfg)
		m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: miss, ShareFraction: 0.1, SharedReadFraction: 0.05})
		m.Warmup(cycles / 5)
		m.Run(cycles)
		rep := m.Report()
		var instr uint64
		for _, c := range rep.PerCPU {
			instr += c.Instructions
		}
		return float64(instr) / rep.Seconds / float64(rep.Processors),
			rep.BusLoad / float64(rep.Processors)
	}

	// The CVAX's four-times-larger cache quarters the miss rate (the
	// design assumption of §5.2). The two systems are independent sweep
	// points.
	type sysPoint struct {
		cfg  machine.Config
		miss float64
	}
	type sysResult struct{ rate, load float64 }
	res := SweepItems(cfg.workers(), []sysPoint{
		{machine.MicroVAXConfig(4), 0.20},
		{machine.CVAXConfig(4), 0.05},
	}, func(p sysPoint) sysResult {
		rate, load := measure(p.cfg, p.miss)
		return sysResult{rate, load}
	})
	mvRate, mvLoad := res[0].rate, res[0].load
	cvRate, cvLoad := res[1].rate, res[1].load

	speedup := cvRate / mvRate
	t := stats.NewTable("MicroVAX vs CVAX Firefly (4 CPUs, same workload)",
		"system", "K instr/s per CPU", "bus load per CPU")
	t.AddRow("MicroVAX 78032", fmt.Sprintf("%.0f", mvRate/1000), fmt.Sprintf("%.3f", mvLoad))
	t.AddRow("CVAX 78034", fmt.Sprintf("%.0f", cvRate/1000), fmt.Sprintf("%.3f", cvLoad))
	text := t.String() + fmt.Sprintf(`
Speedup: %.2fx (paper: 2.0-2.5x; "less than the 2.5 to 3.2 speedup
reported for other systems that use the new CVAX processor" because data
stays out of the on-chip cache and the MBus timing was retained).
Per-CPU bus load ratio CVAX/MicroVAX: %.2f (paper: "approximately the
same bus load per processor").
`, speedup, cvLoad/mvLoad)
	return Outcome{ID: "cvax", Title: "CVAX upgrade speedup", Text: text}
}

// RPCThroughput tabulates the closed transport network's asymptotic
// bound against concurrent threads, reproducing §6's "4.6 megabits per
// second using an average of three concurrent threads" and the knee that
// explains the three. The cycle-level measurement of the same claim is
// the `cluster` experiment.
func RPCThroughput(Config) Outcome {
	cfg := rpc.Config{}
	t := stats.NewTable("RPC data transfer: bound vs concurrent threads (1 KB calls)",
		"threads", "Mbit/s", "mean latency (µs)", "client util", "wire util", "server util")
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		b := cfg.Bound(n)
		t.AddRow(
			fmt.Sprintf("%d", b.Threads),
			fmt.Sprintf("%.2f", b.Mbps),
			fmt.Sprintf("%.0f", b.MeanLatencyUS),
			fmt.Sprintf("%.2f", b.ClientUtil),
			fmt.Sprintf("%.2f", b.WireUtil),
			fmt.Sprintf("%.2f", b.ServerUtil),
		)
	}
	text := t.String() + fmt.Sprintf(`
Each call visits three single-server stations: client (marshal and
finish), wire (call and reply frames), and the per-connection server
stage. Throughput is min(N/R0, 1/Dmax): bounded by the population below
the knee N* = R0/Dmax = %.2f threads and by the server stage above it.
Two threads cannot keep the server busy; three can, which is why the
paper's 4.6 Mbit/s plateau needs "an average of three concurrent
threads" (§6).
`, cfg.Bound(1).Knee)
	return Outcome{ID: "rpc", Title: "RPC throughput", Text: text}
}

// QBusLoad saturates the DMA path and reports the MBus bandwidth it
// consumes, plus the slowdown inflicted on a computing processor.
// The paper: "When fully loaded, the QBus consumes about 30% of the main
// memory bandwidth. The average I/O load is much lower."
func QBusLoad(cfg Config) Outcome {
	cycles := cfg.cycles(500_000, 5_000_000)

	run := func(flood bool) (load float64, cpuRate float64) {
		m := machine.New(machine.MicroVAXConfig(1))
		m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0, SharedReadFraction: 0})
		maps := &qbus.MapRegisters{}
		engine := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
		m.AddDevice(engine)
		maps.MapRange(0, 0x300000, 1<<20)
		if flood {
			words := 256
			var refill func(bool)
			refill = func(bool) {
				engine.Submit(&qbus.Transfer{
					Device: "flood", ToMemory: true, QAddr: 0, Words: words,
					Data: make([]uint32, words), OnDone: refill,
				})
			}
			refill(false)
		}
		m.Warmup(cycles / 5)
		m.Run(cycles)
		rep := m.Report()
		return rep.BusLoad, rep.MeanCPU().Total / 1000
	}

	type qbusResult struct{ load, rate float64 }
	res := SweepItems(cfg.workers(), []bool{false, true}, func(flood bool) qbusResult {
		load, rate := run(flood)
		return qbusResult{load, rate}
	})
	quietLoad, quietRate := res[0].load, res[0].rate
	floodLoad, floodRate := res[1].load, res[1].rate
	t := stats.NewTable("QBus DMA vs MBus bandwidth (1 computing CPU)",
		"condition", "bus load", "CPU K refs/s")
	t.AddRow("no I/O", fmt.Sprintf("%.2f", quietLoad), fmt.Sprintf("%.0f", quietRate))
	t.AddRow("QBus saturated", fmt.Sprintf("%.2f", floodLoad), fmt.Sprintf("%.0f", floodRate))
	text := t.String() + fmt.Sprintf(`
DMA share of the MBus: %.0f%% (paper: about 30%%). The computing
processor slows by %.0f%% under full I/O load — the price of sharing the
storage system, which the cache exists to keep small.
`, (floodLoad-quietLoad)*100, (1-floodRate/quietRate)*100)
	return Outcome{ID: "qbus", Title: "QBus bandwidth consumption", Text: text}
}

// MDCThroughput measures the display controller's paint rates against
// the paper's figures: 16 megapixels/second for area operations and
// about 20,000 10-point characters/second from the font cache.
func MDCThroughput(cfg Config) Outcome {
	return mdcThroughput(cfg)
}

// ParallelMake runs the §6 parallel make over a processor sweep.
func ParallelMake(cfg Config) Outcome {
	maxCycles := cfg.cycles(300_000_000, 3_000_000_000)
	leaves, cost := 8, uint64(40_000)
	if !cfg.Full {
		leaves, cost = 6, 20_000
	}
	t := stats.NewTable("Parallel make: rebuild with fan-out "+fmt.Sprint(leaves),
		"CPUs", "makespan (Mcycles)", "speedup")
	// The CPU-count sweep points are independent builds; the speedup
	// column (relative to the first finished point) is derived after
	// ordered collection.
	ns := []int{1, 2, 4, 6}
	type makeResult struct {
		mcycles float64
		ok      bool
	}
	results := SweepItems(cfg.workers(), ns, func(n int) makeResult {
		m := machine.New(machine.MicroVAXConfig(n))
		k := topaz.NewKernel(m, topaz.Config{Quantum: 2000, Dispatch: topaz.MigrationAverse{}})
		res := workload.RunMake(k, workload.StandardBuild(leaves, cost), maxCycles)
		return makeResult{float64(res.Cycles) / 1e6, res.OK}
	})
	var base float64
	for i, n := range ns {
		r := results[i]
		if !r.ok {
			t.AddRow(fmt.Sprintf("%d", n), "DNF", "-")
			continue
		}
		if base == 0 {
			base = r.mcycles
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.2f", r.mcycles), fmt.Sprintf("%.2f", base/r.mcycles))
	}
	text := t.String() + `
Speedup saturates at the build's parallelism limit (the serial scan/
parse/link chain bounds it, per Amdahl), the behaviour that made the
parallel make a showcase Topaz application (§6).
`
	return Outcome{ID: "make", Title: "Parallel make", Text: text}
}

// LineSizeAblation sweeps cache line size both analytically (the §5.2
// model with Smith's √-rule for miss rate and multi-word fill costs) and
// on the cycle simulator with real multi-word lines. The paper's
// footnote: "A larger line would probably have reduced the miss rate
// considerably, but it would have complicated the design... we did not
// pursue a larger line."
func LineSizeAblation(cfg Config) Outcome {
	base := model.MicroVAX()
	t := stats.NewTable("Line size ablation (analytic, 5-processor system)",
		"line bytes", "miss rate", "TPI", "TP(5)")
	for _, bytes := range []int{4, 8, 16, 32} {
		p := base
		words := float64(bytes) / 4
		// Miss rate falls roughly with the square root of line size;
		// fills (and dirty victims) move `words` bus words.
		p.M = base.M / math.Sqrt(words)
		p.N = base.N * words
		// Write-throughs still move one longword: evaluate SW with the
		// base op time by scaling S down by the same factor the formulas
		// multiply in (the SW term is small; the approximation is noted).
		p.S = base.S / words
		pt := p.At(5)
		t.AddRow(fmt.Sprintf("%d", bytes), fmt.Sprintf("%.3f", p.M),
			fmt.Sprintf("%.1f", pt.TPI), fmt.Sprintf("%.2f", pt.TP))
	}
	// Simulated: real multi-word lines on 5-CPU machines. The working-set
	// workload drifts one word at a time — the weak spatial locality of
	// the pointer-heavy Modula-2+ code SRC ran — so prefetching buys
	// little while every fill occupies the bus for W operations.
	cycles := cfg.cycles(300_000, 3_000_000)
	ts := stats.NewTable("Line size ablation (simulated, 5-processor system, working-set workload)",
		"line bytes", "miss rate", "bus load", "per-CPU K refs/s")
	lws := []int{1, 2, 4, 8}
	type lineResult struct{ miss, load, krefs float64 }
	simmed := SweepItems(cfg.workers(), lws, func(lw int) lineResult {
		cfg := machine.MicroVAXConfig(5)
		cfg.LineWords = lw
		m := machine.New(cfg)
		m.AttachSources(func(i int, c *core.Cache) trace.Source {
			return trace.NewWorkingSet(trace.WorkingSetConfig{
				Base:  mbus.Addr(0x100000 + uint32(i)*0x80000),
				Bytes: 0x80000, SetLines: 400, DriftProb: 0.05,
				Seed: uint64(i) + 9,
			})
		})
		m.Warmup(cycles / 5)
		m.Run(cycles)
		rep := m.Report()
		mean := rep.MeanCPU()
		return lineResult{mean.MissRate, rep.BusLoad, mean.Total / 1000}
	})
	for i, lw := range lws {
		r := simmed[i]
		ts.AddRow(fmt.Sprintf("%d", lw*4), fmt.Sprintf("%.3f", r.miss),
			fmt.Sprintf("%.2f", r.load), fmt.Sprintf("%.0f", r.krefs))
	}

	text := t.String() + "\n" + ts.String() + `
Longer lines do cut the miss rate, but the MBus moves one longword per
400 ns operation with no burst mode, so a 32-byte fill costs eight full
operations: on this bus, larger lines buy little or lose outright once
bus occupancy is charged. Both the model and the simulator vindicate the
designers' one-longword compromise, while showing what a burst-capable
memory system would have had to provide before larger lines paid off
("it would have complicated the design of the cache, the MBus, and the
storage modules").
`
	return Outcome{ID: "linesize", Title: "Line size ablation", Text: text}
}

// OnChipDataAblation measures what the CVAX Firefly gave up by keeping
// data out of the on-chip cache (§5, §5.3).
func OnChipDataAblation(cfg Config) Outcome {
	cycles := cfg.cycles(600_000, 6_000_000)

	measure := func(dcache bool) float64 {
		cfg := machine.CVAXConfig(4)
		v := cpu.CVAX78034()
		v.OnChipDCache = dcache
		cfg.Variant = v
		m := machine.New(cfg)
		m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.05, ShareFraction: 0.1, SharedReadFraction: 0.05})
		m.Warmup(cycles / 5)
		m.Run(cycles)
		rep := m.Report()
		var instr uint64
		for _, c := range rep.PerCPU {
			instr += c.Instructions
		}
		return float64(instr) / rep.Seconds
	}

	res := SweepItems(cfg.workers(), []bool{false, true}, measure)
	off, on := res[0], res[1]
	t := stats.NewTable("CVAX on-chip cache: instruction-only vs instructions+data",
		"configuration", "K instr/s (4 CPUs)")
	t.AddRow("I-only (as shipped)", fmt.Sprintf("%.0f", off/1000))
	t.AddRow("I+D (coherence-unsafe)", fmt.Sprintf("%.0f", on/1000))
	text := t.String() + fmt.Sprintf(`
Caching data on-chip buys %.0f%% here. This is a lower bound on the
sacrifice: the simulator charges the same access tick for on-chip and
board-cache hits, so only the avoided board-cache misses and bus stalls
show up. The designers gave that up deliberately because the snooping
hardware cannot see on-chip data: "To simplify the problem of
maintaining memory coherence, we have chosen to configure that cache to
store only instruction references, not data."
`, (on/off-1)*100)
	return Outcome{ID: "onchipdata", Title: "On-chip data cache ablation", Text: text}
}
