// Package experiments contains one driver per table and figure of the
// paper's evaluation plus the ablations DESIGN.md calls out. Each driver
// builds the systems it needs, runs the workload, and renders a report in
// the layout of the paper's artifact; cmd/tables and the repository-root
// benchmarks are thin wrappers around these drivers. The experiment IDs
// match DESIGN.md's per-experiment index.
package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"firefly/internal/mbus"
	"firefly/internal/topaz"
)

// Outcome is one experiment's rendered result.
type Outcome struct {
	// ID is the DESIGN.md experiment identifier (e.g. "table1").
	ID string
	// Title is the human heading.
	Title string
	// Text is the rendered report.
	Text string
}

// String renders the outcome with its heading.
func (o Outcome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s", o.ID, o.Title, o.Text)
	return b.String()
}

// Config carries every experiment setting. Its zero value is the Quick
// budget on one sweep worker per CPU, a single Ethernet wire for the
// cluster experiment, and every known policy on both policysweep axes.
type Config struct {
	// Full selects the report-quality run lengths used for
	// EXPERIMENTS.md; false runs the short Quick intervals (seconds of
	// CPU time) for tests and smoke runs.
	Full bool
	// Workers is the sweep worker-pool size (< 1: GOMAXPROCS). Output is
	// byte-identical for any value.
	Workers int
	// Segments is the Ethernet segment count the cluster experiment
	// builds (< 2: one shared wire). With 2, client and server land on
	// separate wires joined by the store-and-forward bridge.
	Segments int
	// Arbs and Scheds restrict policysweep's arbitration and dispatch
	// axes by name; empty keeps the full axis.
	Arbs, Scheds []string
}

// Validate rejects unknown policy names on either policysweep axis.
func (c Config) Validate() error {
	for _, a := range c.Arbs {
		if _, ok := mbus.NewArbiterByName(a); !ok {
			return fmt.Errorf("unknown arbiter %q (known: %v)", a, mbus.ArbiterNames())
		}
	}
	for _, s := range c.Scheds {
		if _, ok := topaz.PolicyByName(s); !ok {
			return fmt.Errorf("unknown dispatch policy %q (known: %v)", s, topaz.PolicyNames())
		}
	}
	return nil
}

// workers is the sweep worker-pool size.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// cycles picks a cycle budget.
func (c Config) cycles(quick, full uint64) uint64 {
	if c.Full {
		return full
	}
	return quick
}

// seconds picks a simulated-seconds budget.
func (c Config) seconds(quick, full float64) float64 {
	if c.Full {
		return full
	}
	return quick
}

// Runner is a named experiment driver.
type Runner struct {
	ID   string
	Run  func(Config) Outcome
	Note string
}

// All returns every experiment in DESIGN.md order.
func All() []Runner {
	return []Runner{
		{"table1", Table1, "Table 1: estimated performance (analytic model)"},
		{"table1sim", Table1Sim, "Table 1 cross-check by cycle simulation"},
		{"table2", Table2, "Table 2: measured performance (threads exerciser)"},
		{"figure3", Figure3, "Figure 3: cache line states"},
		{"figure4", Figure4, "Figure 4: MBus timing"},
		{"figure2", Figure2, "Figure 2: internal structure of Topaz (live)"},
		{"protocols", ProtocolComparison, "coherence protocol bake-off"},
		{"migration", MigrationAblation, "scheduler migration-avoidance ablation"},
		{"cvax", CVAXSpeedup, "CVAX upgrade speedup"},
		{"rpc", RPCThroughput, "RPC data-transfer bandwidth vs outstanding calls"},
		{"cluster", ClusterRPC, "multi-Firefly RPC over the shared Ethernet (§6)"},
		{"traffic", TrafficLoad, "fleet traffic: open-loop load, balancing, admission control"},
		{"qbus", QBusLoad, "fully loaded QBus vs MBus bandwidth"},
		{"mdc", MDCThroughput, "display controller paint rates"},
		{"make", ParallelMake, "parallel make speedup"},
		{"gc", GCOffload, "concurrent garbage collection offload"},
		{"fileio", FileIO, "file system read-ahead / write-behind"},
		{"syscall", SyscallEmulation, "Ultrix system-call emulation cost"},
		{"linesize", LineSizeAblation, "cache line size ablation (analytic + simulated)"},
		{"onchipdata", OnChipDataAblation, "CVAX on-chip data-cache ablation"},
		{"policysweep", PolicySweep, "bus arbitration x dispatch policy fairness sweep"},
		{"coherencecheck", CoherenceCheck, "randomized coherence stress under the checking oracle"},
		{"verify", VerifyProtocols, "exhaustive small-model verification of the protocol suite"},
		{"faultsweep", FaultSweep, "fault-injection sweep with recovery, oracle attached"},
	}
}

// ByID returns the runner with the given ID, or nil.
func ByID(id string) *Runner {
	for _, r := range All() {
		if r.ID == id {
			r := r
			return &r
		}
	}
	return nil
}
