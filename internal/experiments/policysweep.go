package experiments

import (
	"fmt"
	"math"

	"firefly/internal/coherence"
	"firefly/internal/core"
	"firefly/internal/machine"
	"firefly/internal/mbus"
	"firefly/internal/sim"
	"firefly/internal/stats"
	"firefly/internal/topaz"
)

// PolicySweep crosses the policy layer's two axes — bus arbitration
// discipline and kernel dispatch discipline — against coherence protocol
// and per-thread footprint, and reports, per point, delivered throughput
// and two fairness signatures: the max/min per-CPU kernel service ratio
// and the worst per-port arbitration wait. The shape to look for: fixed
// priority (the hardware's discipline, §5.2) concentrates wait cycles on
// the high-numbered ports as load grows, while rr and fcfs spread them;
// dispatch policy moves the service ratio, arbitration the wait tail.

// policyPoint is one cell of the cross product.
type policyPoint struct {
	arb   string
	sched string
	proto core.Protocol
	// wsLines is the per-thread working set; 64 lines fits the cache
	// (low contention), 384 spills it (high contention, more bus traffic
	// for arbitration to referee).
	wsLines int
}

// PolicySweep runs the arbiter x dispatch x protocol x load cross
// product on the sweep engine, one machine per point. Config.Arbs and
// Config.Scheds narrow the axes; names are checked by Config.Validate.
func PolicySweep(cfg Config) Outcome {
	warmup := cfg.cycles(60_000, 400_000)
	measure := cfg.cycles(300_000, 4_000_000)
	const nproc = 4

	arbs := cfg.Arbs
	if len(arbs) == 0 {
		arbs = mbus.ArbiterNames()
	}
	scheds := cfg.Scheds
	if len(scheds) == 0 {
		scheds = topaz.PolicyNames()
	}
	protos := []core.Protocol{core.Firefly{}, coherence.MESI{}}
	loads := []int{64, 384}

	var points []policyPoint
	for _, a := range arbs {
		for _, s := range scheds {
			for _, p := range protos {
				for _, ws := range loads {
					points = append(points, policyPoint{a, s, p, ws})
				}
			}
		}
	}

	type result struct {
		kRefs   float64 // per-CPU K refs/sec delivered
		busLoad float64
		svcFair float64 // max/min per-CPU kernel service over the interval
		maxWait uint64  // worst per-port arbitration wait (cycles)
		sumWait uint64
	}
	res := SweepItems(cfg.workers(), points, func(pt policyPoint) result {
		arb, _ := mbus.NewArbiterByName(pt.arb)
		pol, _ := topaz.PolicyByName(pt.sched)
		mcfg := machine.MicroVAXConfig(nproc)
		mcfg.Protocol = pt.proto
		mcfg.Arbiter = arb
		m := machine.New(mcfg)
		k := topaz.NewKernel(m, topaz.Config{Quantum: 600, Dispatch: pol, Seed: 5})
		for i := 0; i < 8; i++ {
			rng := sim.NewRand(uint64(i)*131 + 17)
			k.Fork(topaz.LoopProgram(1<<30, func(int) []topaz.Action {
				return []topaz.Action{
					topaz.Compute{Instructions: 250 + uint64(rng.Intn(300))},
					topaz.Yield{},
				}
			}), topaz.ThreadSpec{
				Name:            fmt.Sprintf("job%d", i),
				WorkingSetLines: pt.wsLines,
				DriftProb:       0.01,
			}, nil)
		}
		m.Run(warmup)
		// Kernel service counters accumulate over the kernel's lifetime
		// (ResetStats leaves them alone); measure the interval as deltas.
		before := make([]uint64, nproc)
		for i := range before {
			before[i] = k.CPUService(i)
		}
		m.ResetStats()
		m.Run(measure)
		rep := m.Report()

		svc := make([]uint64, nproc)
		for i := range svc {
			svc[i] = k.CPUService(i) - before[i]
		}
		var r result
		r.kRefs = rep.MeanCPU().Total / 1000
		r.busLoad = rep.BusLoad
		r.svcFair = fairnessRatio(svc)
		for _, w := range rep.PortWaits {
			if w > r.maxWait {
				r.maxWait = w
			}
			r.sumWait += w
		}
		return r
	})

	t := stats.NewTable(
		fmt.Sprintf("Policy sweep: arbitration x dispatch x protocol x footprint (%d-CPU, 8 threads)", nproc),
		"arb", "sched", "protocol", "ws", "K refs/s", "load", "svc max/min", "max wait", "wait total")
	for i, pt := range points {
		r := res[i]
		t.AddRow(pt.arb, pt.sched, pt.proto.Name(), fmt.Sprintf("%d", pt.wsLines),
			fmt.Sprintf("%.0f", r.kRefs), fmt.Sprintf("%.2f", r.busLoad),
			formatRatio(r.svcFair),
			fmt.Sprintf("%d", r.maxWait), fmt.Sprintf("%d", r.sumWait))
	}
	text := t.String() + `
Reading the table: "svc max/min" is the ratio of the busiest to the
least-served CPU's kernel service over the interval (1.00 is perfectly
fair); "max wait" is the worst single port's arbitration wait cycles and
"wait total" the sum over ports. Fixed priority piles the wait onto the
high-numbered ports; rr and fcfs level it. Dispatch policy moves the
service ratio: oldest-first migrates freely (fair but write-through
heavy, §5.1), averse favours affinity, steal is averse until a processor
would idle.
`
	return Outcome{ID: "policysweep", Title: "Policy fairness sweep", Text: text}
}

// fairnessRatio is the max/min ratio of the values (1 fair, +Inf
// starved, 0 all-zero) — the same statistic machine.Report computes for
// its lifetime counters, here applied to interval deltas.
func fairnessRatio(vals []uint64) float64 {
	if len(vals) == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == 0 {
		return 0
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return float64(hi) / float64(lo)
}

// formatRatio renders a fairness ratio, keeping +Inf table-friendly.
func formatRatio(r float64) string {
	if math.IsInf(r, 1) {
		return "starved"
	}
	return fmt.Sprintf("%.2f", r)
}
