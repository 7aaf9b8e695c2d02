package experiments

import (
	"fmt"

	"firefly/internal/cluster"
	"firefly/internal/rpc"
	"firefly/internal/stats"
)

// ClusterRPC reproduces §6 end to end: two Fireflies on the simulated
// 10 Mbit/s Ethernet, RPC calls marshalled into machine memory, DMA'd
// through the DEQNA, serialized on the shared wire, served on Topaz
// worker threads, and answered with ID-matched replies. The sustained
// payload bandwidth is swept against concurrent caller threads and held
// next to the closed-network bound of the `rpc` experiment — the paper's
// "4.6 megabits per second using an average of three concurrent
// threads" should appear as a plateau from three threads on, in both
// columns, with the simulation at or below the bound. Config.Segments = 2 puts client and server on separate wires
// joined by the store-and-forward bridge, so every frame pays two
// serializations.
func ClusterRPC(cfg Config) Outcome {
	secs := cfg.seconds(0.4, 2)
	threads := []int{1, 2, 3, 4, 6}
	segments := min(max(cfg.Segments, 1), 2) // two machines cannot spread further

	type row struct {
		threads            int
		mbps, bound        float64
		latencyUS          float64
		wireUtil           float64
		calls, retransmits uint64
	}
	rows := SweepItems(cfg.workers(), threads, func(n int) row {
		cl := cluster.New(cluster.Config{Seed: 6, Segments: segments})
		cl.Node(1).StartServer()
		cl.Node(0).StartCallers(n, 1, 0)
		cl.RunSeconds(secs)
		cli := cl.Node(0).Stats()
		return row{
			threads:     n,
			mbps:        float64(cli.BytesMoved.Value()) * 8 / secs / 1e6,
			bound:       rpc.Config{}.Bound(n).Mbps,
			latencyUS:   cl.Node(0).MeanLatencyUS(),
			wireUtil:    cl.Segment().Utilization(),
			calls:       cli.CallsCompleted.Value(),
			retransmits: cli.Retransmits.Value(),
		}
	})

	title := "Cluster RPC over the shared Ethernet (2 Fireflies, 1 KB calls)"
	if segments > 1 {
		title = "Cluster RPC across bridged Ethernet segments (2 Fireflies, 1 KB calls)"
	}
	t := stats.NewTable(title,
		"threads", "wire Mbit/s", "bound Mbit/s", "delta", "latency (µs)", "wire util", "calls")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.threads),
			fmt.Sprintf("%.2f", r.mbps),
			fmt.Sprintf("%.2f", r.bound),
			fmt.Sprintf("%+.1f%%", (r.mbps-r.bound)/r.bound*100),
			fmt.Sprintf("%.0f", r.latencyUS),
			fmt.Sprintf("%.2f", r.wireUtil),
			fmt.Sprintf("%d", r.calls),
		)
	}
	text := t.String() + `
Every byte crosses the simulated wire: client marshal into NIC buffers,
DEQNA DMA, CSMA/CD serialization at one longword per 32 cycles, receive
DMA, in-order reassembly, and dispatch onto Topaz worker threads. The
plateau from three threads on is the per-connection server stage
saturating at ~4.6 Mbit/s of payload (§6). The bound min(N/R0, 1/Dmax)
assumes no station ever waits for another; the simulation sits below it
and within the differential test's 15% band, furthest below near the
knee (two threads), where calls still collide at the client and wire.
`
	if segments > 1 {
		text += `Client and server sit on separate segments here (-segments): every
frame is captured by the store-and-forward bridge and re-serialized on
the far wire, so latency carries an extra frame time and the
single-wire bound is looser still.
`
	}
	return Outcome{ID: "cluster", Title: "Cluster RPC throughput (simulated wire)", Text: text}
}
