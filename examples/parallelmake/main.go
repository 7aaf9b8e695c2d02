// Parallel make: the §6 showcase application. A build DAG (scan -> parse
// -> many compilations -> link) runs as one thread per target, each
// joining its dependencies; the example sweeps processor counts and
// prints the speedup curve against the serial and critical-path bounds.
package main

import (
	"fmt"

	"firefly"
	"firefly/internal/topaz"
	"firefly/internal/workload"
)

func main() {
	g := workload.StandardBuild(8, 40_000)
	fmt.Printf("build graph: %d targets, serial cost %.2f M instructions, critical path %.2f M\n\n",
		len(g.Targets()), float64(g.SerialCost())/1e6, float64(g.CriticalPath())/1e6)

	var base float64
	for _, n := range []int{1, 2, 4, 6} {
		m := firefly.NewMicroVAX(n)
		k := firefly.Boot(m, firefly.KernelConfig{Quantum: 2000, Dispatch: topaz.MigrationAverse{}})
		res := workload.RunMake(k, workload.StandardBuild(8, 40_000), 3_000_000_000)
		if !res.OK {
			fmt.Printf("%d CPUs: did not finish\n", n)
			continue
		}
		ms := float64(res.Cycles) / 1e4 // cycles -> ms
		if base == 0 {
			base = ms
		}
		fmt.Printf("%d CPUs: makespan %7.1f ms, speedup %.2fx\n", n, ms, base/ms)
	}
	fmt.Println("\nSpeedup flattens at the DAG's parallelism limit: the serial scan/")
	fmt.Println("parse prefix and the final link bound it (Amdahl), just as the")
	fmt.Println("hardware's five processors bounded the original.")
}
