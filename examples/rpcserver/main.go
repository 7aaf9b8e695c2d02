// RPC server: the §6 data-transfer measurement. Tabulates the closed
// transport network's throughput bound against outstanding calls and
// prints the curve whose knee the paper reports: "The remote server can
// sustain a bandwidth of 4.6 megabits per second using an average of
// three concurrent threads." The cycle-level measurement of the same
// claim is `go run ./cmd/tables -experiment cluster`.
package main

import (
	"fmt"

	"firefly/internal/rpc"
)

func main() {
	fmt.Println("Topaz RPC data transfer: bandwidth bound vs outstanding calls")
	fmt.Println("(1 KB fragments over a 10 Mbit/s Ethernet; MicroVAX-era stage costs)")
	fmt.Println()
	fmt.Printf("%8s %10s %16s %12s %10s\n",
		"threads", "Mbit/s", "latency (µs)", "server util", "wire util")
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8} {
		b := rpc.Config{}.Bound(n)
		fmt.Printf("%8d %10.2f %16.0f %12.2f %10.2f\n",
			n, b.Mbps, b.MeanLatencyUS, b.ServerUtil, b.WireUtil)
	}
	fmt.Printf("\nThe server stage saturates past the knee at %.2f threads.\n",
		rpc.Config{}.Bound(1).Knee)

	fmt.Println("\nFragment size matters — larger fragments amortize fixed costs:")
	for _, bytes := range []int{256, 1024, 4096} {
		b := rpc.Config{PayloadBytes: bytes}.Bound(4)
		fmt.Printf("  %4d-byte fragments: %.2f Mbit/s\n", bytes, b.Mbps)
	}
}
