package check

import (
	"testing"

	"firefly/internal/machine"
	"firefly/internal/trace"
)

func benchMachine(b *testing.B, check bool, walkEvery uint64) {
	m := machine.New(machine.MicroVAXConfig(5))
	m.AttachSyntheticLoad(trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05})
	if check {
		checker, err := Attach(m)
		if err != nil {
			b.Fatal(err)
		}
		checker.SetWalkEvery(walkEvery)
		defer func() {
			for _, v := range checker.Violations() {
				b.Errorf("violation during benchmark: %v", v)
			}
		}()
	}
	m.Warmup(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkMachineCycleUnchecked is the root BenchmarkMachineCycle
// workload re-declared here so `go test -bench . ./internal/check` prints
// the checked and unchecked numbers side by side.
func BenchmarkMachineCycleUnchecked(b *testing.B) { benchMachine(b, false, 0) }

// BenchmarkMachineCycleChecked is the same machine with the full
// coherence checker attached: oracle on every load and store, invariant
// walk (over 5 x 4096 cache lines here) every 64 bus operations.
func BenchmarkMachineCycleChecked(b *testing.B) { benchMachine(b, true, 64) }

// BenchmarkMachineCycleOracleOnly attaches the checker with periodic
// walks disabled, isolating the per-event oracle cost from the walker.
func BenchmarkMachineCycleOracleOnly(b *testing.B) { benchMachine(b, true, 0) }
