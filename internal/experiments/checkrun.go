package experiments

import (
	"fmt"

	"firefly/internal/check"
	"firefly/internal/coherence"
	"firefly/internal/stats"
)

// CoherenceCheck runs the randomized coherence stress (internal/check)
// over the whole protocol suite: every CPU load validated against a
// sequentially-coherent reference memory, the invariant walker sweeping
// the caches throughout. It is a self-test of the simulator rather than a
// paper reproduction — the table should read all-zero violations.
func CoherenceCheck(cfg Config) Outcome {
	ops := int(cfg.cycles(30_000, 1<<20))
	t := stats.NewTable(
		fmt.Sprintf("Coherence checking: %d-op randomized stress per protocol (4 CPUs, seed 7919)", ops),
		"protocol", "checked ops", "walks", "cycles", "violations")
	for _, proto := range coherence.All() {
		res, _, err := check.RunStress(check.StressConfig{
			Protocol:  proto.Name(),
			Ops:       ops,
			Seed:      7919,
			LineWords: 2,
			WalkEvery: 64,
		})
		if err != nil {
			t.AddRow(proto.Name(), "error: "+err.Error(), "", "", "")
			continue
		}
		t.AddRow(proto.Name(),
			fmt.Sprint(res.Checked), fmt.Sprint(res.Walks),
			fmt.Sprint(res.Cycles), fmt.Sprint(len(res.Violations)))
	}
	return Outcome{
		ID:    "coherencecheck",
		Title: "Coherence checker stress across the protocol suite",
		Text:  t.String(),
	}
}
