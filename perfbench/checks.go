package main

import (
	"fmt"

	"firefly/internal/rpc"
)

// maxTable1ModelErr is the largest relative gap between simulated and
// §5.2 model throughput the Table 1 check accepts at any grid point.
// The simulator runs about 10% ahead of the model at NP=10, where the
// open model's unbounded-population wait term is pessimistic
// (EXPERIMENTS.md, Table 1 cross-check).
const maxTable1ModelErr = 0.15

// checkTable1 checks the simulated grid: every point did work at a bus
// load strictly between 0 and 1 with TPI no better than the
// no-wait-state base, load rises with the processor count, and
// throughput tracks the queuing model.
func checkTable1(pts []t1Point) error {
	if len(pts) != len(table1NPs) {
		return fmt.Errorf("table1-cold: %d of %d points", len(pts), len(table1NPs))
	}
	for i, pt := range pts {
		switch {
		case pt.instrs == 0:
			return fmt.Errorf("table1-cold: NP=%d executed no instruction", pt.np)
		case !(pt.load > 0 && pt.load < 1):
			return fmt.Errorf("table1-cold: NP=%d bus load %v outside (0,1)", pt.np, pt.load)
		case pt.tpi < 11.9:
			return fmt.Errorf("table1-cold: NP=%d TPI %v below the base 11.9", pt.np, pt.tpi)
		case i > 0 && pt.load <= pts[i-1].load:
			return fmt.Errorf("table1-cold: bus load %v at NP=%d not above %v at NP=%d",
				pt.load, pt.np, pts[i-1].load, pts[i-1].np)
		}
		if e := relErr(pt.tp, pt.modelTP); e > maxTable1ModelErr {
			return fmt.Errorf("table1-cold: NP=%d TP %.3f is %.1f%% from the model's %.3f",
				pt.np, pt.tp, 100*e, pt.modelTP)
		}
	}
	return nil
}

// checkCallerConservation checks a closed-loop caller node: every
// issued call is completed, failed, shed, or held by one of its threads.
func checkCallerConservation(node int, st rpc.NodeStats, threads int) error {
	done := st.CallsCompleted.Value() + st.CallsFailed.Value() + st.ShedReplies.Value()
	issued := st.CallsIssued.Value()
	if done > issued || issued-done > uint64(threads) {
		return fmt.Errorf("node %d: issued %d calls but completed+failed+shed = %d with %d threads",
			node, issued, done, threads)
	}
	return nil
}

// callAccount is the traffic engine's disposition of every issued call.
type callAccount struct {
	issued, completed, shed, failed, inFlight uint64
}

// checkTraffic checks conservation of calls (issued = completed + shed
// + failed + in flight) and that enough calls completed for the p99.
func checkTraffic(a callAccount, minCalls uint64) error {
	if a.issued != a.completed+a.shed+a.failed+a.inFlight {
		return fmt.Errorf("traffic-live: issued %d != completed %d + shed %d + failed %d + in flight %d",
			a.issued, a.completed, a.shed, a.failed, a.inFlight)
	}
	if a.completed < minCalls {
		return fmt.Errorf("traffic-live: %d calls completed, need %d", a.completed, minCalls)
	}
	return nil
}

// checkDigest compares the simulated-statistics hash of two
// independently computed runs of the same seed.
func checkDigest(what string, want, got uint64) error {
	if want != got {
		return fmt.Errorf("%s: statistics hash %016x, want %016x", what, got, want)
	}
	return nil
}
