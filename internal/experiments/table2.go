package experiments

import (
	"fmt"
	"strings"

	"firefly/internal/machine"
	"firefly/internal/model"
	"firefly/internal/topaz"
	"firefly/internal/workload"
)

// Table2Row is the measured counter set for one machine configuration,
// in the categories of the paper's Table 2 (all rates K refs/sec).
type Table2Row struct {
	Processors int
	// Per-CPU reference rates.
	Reads, Writes, Total float64
	// Bus-level rates per CPU.
	MBusReads        float64
	MBusWritesShared float64
	MBusWritesClean  float64
	MBusVictims      float64
	// Whole-machine figures.
	MBusTotal float64
	BusLoad   float64
	MissRate  float64
}

// paper's published Table 2 values (K refs/sec) for the report's
// side-by-side column.
type paperTable2 struct {
	reads, writes, total float64 // actual, per CPU
	busTotal             float64
	busLoad              float64
	mbusReads            float64
	wShared, wClean      float64
	victims              float64
	missRate             float64
}

var paperOneCPU = paperTable2{
	reads: 1125, writes: 225, total: 1350,
	busTotal: 440, busLoad: 0.18,
	mbusReads: 340, wShared: 0, wClean: 50, victims: 50,
	missRate: 0.3,
}

var paperFiveCPU = paperTable2{
	reads: 850, writes: 225, total: 1075,
	busTotal: 1350, busLoad: 0.54,
	mbusReads: 145, wShared: 75, wClean: 20, victims: 10,
	missRate: 0.17,
}

// MeasureExerciser runs the Table 2 workload on an n-processor Firefly
// and returns the measured counters over the measurement interval.
func MeasureExerciser(n int, warmup, measure uint64) Table2Row {
	m := machine.New(machine.MicroVAXConfig(n))
	k := topaz.NewKernel(m, topaz.Config{
		Quantum: 1500,
		// The measured program migrates heavily ("there is a great deal of
		// synchronization and process migration"); the default scheduler
		// policy is used, and the yields in the workload do the rest.
		Seed: 7,
	})
	// The same program runs on both configurations (16 threads), exactly
	// as the hardware measurement did. On one CPU the 16 working sets
	// churn the single 4096-line cache through rapid context switching —
	// the paper's explanation for the elevated one-CPU miss rate ("much
	// higher than expected, possibly due to cold-start effects caused by
	// rapid context switching").
	ex := workload.NewExerciser(k, workload.ExerciserConfig{
		Threads: 16,
		// Effectively endless: the measurement interval ends first.
		Rounds:         1_000_000,
		SharedFraction: 0.35,
		Seed:           11,
	})
	ex.Step(warmup)
	m.ResetStats()
	ex.Step(measure)

	rep := m.Report()
	mean := rep.MeanCPU()
	return Table2Row{
		Processors:       n,
		Reads:            mean.Reads / 1000,
		Writes:           mean.Writes / 1000,
		Total:            mean.Total / 1000,
		MBusReads:        mean.MBusReads / 1000,
		MBusWritesShared: mean.MBusWritesShared / 1000,
		MBusWritesClean:  mean.MBusWritesClean / 1000,
		MBusVictims:      mean.MBusVictims / 1000,
		MBusTotal:        rep.MBusTotal / 1000,
		BusLoad:          rep.BusLoad,
		MissRate:         mean.MissRate,
	}
}

// Table2 reproduces the paper's Table 2: the threads exerciser on one-CPU
// and five-CPU systems, with the model's expected rates and the paper's
// published measurements alongside the simulator's.
func Table2(cfg Config) Outcome {
	warmup := cfg.cycles(100_000, 500_000)
	measure := cfg.cycles(1_000_000, 10_000_000)

	one := MeasureExerciser(1, warmup, measure)
	five := MeasureExerciser(5, warmup, measure)

	p := model.MicroVAX()
	expOne := p.ZeroLoadRefsPerSec() / 1000
	expFive := p.RefsPerSecAtLoad(p.LoadFor(5)) / 1000
	rf := p.ReadFraction()

	var b strings.Builder
	b.WriteString("Firefly Measured Performance (K refs/sec); " +
		"'paper' columns are the publication's hardware counters\n\n")
	row := func(label string, modelOne, paperOne, simOne, modelFive, paperFive, simFive float64) {
		fmt.Fprintf(&b, "%-28s %8.0f %8.0f %8.0f   %8.0f %8.0f %8.0f\n",
			label, modelOne, paperOne, simOne, modelFive, paperFive, simFive)
	}
	fmt.Fprintf(&b, "%-28s %8s %8s %8s   %8s %8s %8s\n", "",
		"exp", "paper", "sim", "exp", "paper", "sim")
	fmt.Fprintf(&b, "%-28s %26s   %26s\n", "", "------ one-CPU ------", "------ five-CPU -----")
	row("Per CPU: reads", expOne*rf, paperOneCPU.reads, one.Reads,
		expFive*rf, paperFiveCPU.reads, five.Reads)
	row("Per CPU: writes", expOne*(1-rf), paperOneCPU.writes, one.Writes,
		expFive*(1-rf), paperFiveCPU.writes, five.Writes)
	row("Per CPU: total", expOne, paperOneCPU.total, one.Total,
		expFive, paperFiveCPU.total, five.Total)
	fmt.Fprintf(&b, "\n%-28s %17.0f %8.0f   %17.0f %8.0f\n",
		"MBus total refs", paperOneCPU.busTotal, one.MBusTotal,
		paperFiveCPU.busTotal, five.MBusTotal)
	fmt.Fprintf(&b, "%-28s %17.2f %8.2f   %17.2f %8.2f\n",
		"Bus load L", paperOneCPU.busLoad, one.BusLoad,
		paperFiveCPU.busLoad, five.BusLoad)
	fmt.Fprintf(&b, "%-28s %17.2f %8.2f   %17.2f %8.2f\n",
		"Miss rate M", paperOneCPU.missRate, one.MissRate,
		paperFiveCPU.missRate, five.MissRate)
	fmt.Fprintf(&b, "\nMBus references per CPU (K refs/sec), paper vs simulated:\n")
	row2 := func(label string, pOne, sOne, pFive, sFive float64) {
		fmt.Fprintf(&b, "%-28s %17.0f %8.0f   %17.0f %8.0f\n", label, pOne, sOne, pFive, sFive)
	}
	row2("Reads (fills)", paperOneCPU.mbusReads, one.MBusReads,
		paperFiveCPU.mbusReads, five.MBusReads)
	row2("Writes w/ MShared", paperOneCPU.wShared, one.MBusWritesShared,
		paperFiveCPU.wShared, five.MBusWritesShared)
	row2("Writes w/o MShared", paperOneCPU.wClean, one.MBusWritesClean,
		paperFiveCPU.wClean, five.MBusWritesClean)
	row2("Victims", paperOneCPU.victims, one.MBusVictims,
		paperFiveCPU.victims, five.MBusVictims)
	b.WriteString(`
Shape checks (the paper's qualitative findings):
`)
	checks := []struct {
		name string
		ok   bool
	}{
		{"five-CPU bus load well above one-CPU", five.BusLoad > one.BusLoad*1.8},
		{"sharing visible only with >1 CPU (MShared writes)", one.MBusWritesShared == 0 && five.MBusWritesShared > 0},
		{"write-throughs dominate victim writes at 5 CPUs", five.MBusWritesShared+five.MBusWritesClean > five.MBusVictims},
		{"sharing far above the model's 10% guess", five.MBusWritesShared > five.MBusWritesClean},
		{"per-CPU rate drops with contention", five.Total < one.Total},
	}
	for _, c := range checks {
		mark := "ok  "
		if !c.ok {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %s\n", mark, c.name)
	}
	return Outcome{ID: "table2", Title: "Firefly Measured Performance", Text: b.String()}
}
