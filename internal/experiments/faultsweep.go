package experiments

import (
	"fmt"

	"firefly/internal/check"
	"firefly/internal/fault"
	"firefly/internal/machine"
	"firefly/internal/qbus"
	"firefly/internal/stats"
	"firefly/internal/trace"
)

// FaultSweep stresses the fault-injection and recovery layer: a 4-CPU
// machine under synthetic load plus a saturated DMA flood, swept across
// injection rates from zero to 1e-2 per event with every fault class
// enabled (all correctable: the uncorrectable ECC fraction stays zero).
// The coherence oracle and invariant walker ride along at every point —
// the violations column must read zero throughout, which is the layer's
// core claim: injected faults abort before any architectural effect, so
// recovery never perturbs coherence. The zero-rate row doubles as the
// no-plan baseline (a zero-rate plan draws no randomness at all).
func FaultSweep(cfg Config) Outcome {
	cycles := cfg.cycles(120_000, 2_000_000)
	rates := []float64{0, 1e-5, 1e-4, 1e-3, 1e-2}

	type point struct {
		instr     uint64
		injected  uint64
		retries   uint64
		mchecks   uint64
		dmaAborts uint64
		checked   uint64
		viol      int
	}

	res := SweepItems(cfg.workers(), rates, func(rate float64) point {
		cfg := machine.MicroVAXConfig(4)
		cfg.Seed = 7919
		cfg.Faults = &fault.Config{
			BusParityRate:    rate,
			BusTimeoutRate:   rate,
			MemSoftErrorRate: rate,
			DMANXMRate:       rate,
			DMAStallRate:     rate,
			TagParityRate:    rate,
		}
		m := machine.New(cfg)
		ck, err := check.Attach(m)
		if err != nil {
			panic(err)
		}
		m.AttachSyntheticLoad(trace.SyntheticLoad{
			MissRate: 0.1, ShareFraction: 0.1, SharedReadFraction: 0.7,
		})

		maps := &qbus.MapRegisters{}
		engine := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
		m.AddDevice(engine)
		maps.MapRange(0, 0x300000, 1<<20)
		plan := m.Faults()
		engine.SetFaultPolicy(plan, plan.MaxRetries(), plan.BackoffCycles())
		words := 128
		var refill func(bool)
		refill = func(bool) {
			engine.Submit(&qbus.Transfer{
				Device: "flood", ToMemory: true, QAddr: 0, Words: words,
				Data: make([]uint32, words), OnDone: refill,
			})
		}
		refill(false)

		m.Run(cycles)

		var p point
		p.injected = plan.Stats().Total()
		for i := 0; i < cfg.Processors; i++ {
			p.instr += m.CPU(i).Stats().Instructions
			cs := m.Cache(i).Stats()
			p.retries += cs.Retries
			p.mchecks += cs.MachineChecks
		}
		es := engine.Stats()
		p.retries += es.Retries.Value()
		p.dmaAborts = es.NXMFaults.Value() + es.Aborted.Value() + es.MapFaults.Value()
		p.checked = ck.Checked()
		p.viol = len(ck.Violations())
		return p
	})

	t := stats.NewTable(
		fmt.Sprintf("Fault sweep: %d cycles, 4 CPUs + DMA flood, all classes at one rate, oracle attached", cycles),
		"rate", "instr", "injected", "retries", "mchecks", "dma aborts", "checked", "violations")
	for i, rate := range rates {
		p := res[i]
		t.AddRow(fmt.Sprintf("%g", rate),
			fmt.Sprint(p.instr), fmt.Sprint(p.injected), fmt.Sprint(p.retries),
			fmt.Sprint(p.mchecks), fmt.Sprint(p.dmaAborts),
			fmt.Sprint(p.checked), fmt.Sprint(p.viol))
	}
	return Outcome{
		ID:    "faultsweep",
		Title: "Fault injection sweep under the coherence oracle",
		Text:  t.String(),
	}
}
