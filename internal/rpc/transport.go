package rpc

import (
	"fmt"

	"firefly/internal/sim"
)

// Config calibrates the transport pipeline. Durations are in MBus cycles
// (100 ns); defaults reproduce the MicroVAX-era Topaz RPC measurements.
type Config struct {
	// PayloadBytes is the data carried per call (default 1024: the data
	// transfer protocol's fragment).
	PayloadBytes int

	// ClientFixedCycles + ClientPerByteCentiCycles/100 cycles per byte is
	// the client-side cost per call: stub, marshal, buffer handoff.
	// Default 1500 + 12.4 cycles/byte (the MicroVAX marshalling path
	// copies at roughly 0.8 MB/s).
	ClientFixedCycles        uint64
	ClientPerByteCentiCycles uint64

	// WireFixedCycles covers framing, device start-up (the interprocessor
	// interrupt to the I/O processor), and turnaround. The per-bit cost is
	// the 10 Mbit/s Ethernet itself. Default 2300.
	WireFixedCycles uint64

	// ServerFixedCycles + ServerPerByteCentiCycles/100 cycles per byte is
	// the server-side cost: receive interrupt, unmarshal, the procedure
	// itself, reply marshal and acknowledgment turnaround. Per-connection
	// processing is serialized (the transfer protocol delivers fragments
	// in order), so this stage is the pipeline's bottleneck: with the
	// default 2500 + 14.95 cycles/byte and 1 KB fragments it serves one
	// call per ~1.78 ms — 4.6 Mbit/s of payload.
	ServerFixedCycles        uint64
	ServerPerByteCentiCycles uint64

	// ReplyWireCycles and ClientFinishCycles close the call. Defaults
	// 1200 and 800.
	ReplyWireCycles    uint64
	ClientFinishCycles uint64
}

func (c Config) withDefaults() Config {
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 1024
	}
	if c.ClientFixedCycles == 0 {
		c.ClientFixedCycles = 1500
	}
	if c.ClientPerByteCentiCycles == 0 {
		c.ClientPerByteCentiCycles = 1240
	}
	if c.WireFixedCycles == 0 {
		c.WireFixedCycles = 2300
	}
	if c.ServerFixedCycles == 0 {
		c.ServerFixedCycles = 2500
	}
	if c.ServerPerByteCentiCycles == 0 {
		c.ServerPerByteCentiCycles = 1495
	}
	if c.ReplyWireCycles == 0 {
		c.ReplyWireCycles = 1200
	}
	if c.ClientFinishCycles == 0 {
		c.ClientFinishCycles = 800
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PayloadBytes < 0 || c.PayloadBytes > MaxPayload {
		return fmt.Errorf("rpc: payload %d out of range", c.PayloadBytes)
	}
	return nil
}

// ServerServiceCycles is the nominal server-station cost of one call
// with the given payload: the per-connection serialized stage the
// runtime's workers charge (before any per-procedure extra from
// NodeConfig.ProcService). The traffic engine's queuing model uses it as
// the service time of each server node.
func (c Config) ServerServiceCycles(payloadBytes int) uint64 {
	c = c.withDefaults()
	return c.ServerFixedCycles + c.ServerPerByteCentiCycles*uint64(payloadBytes)/100
}

// Bound is the asymptotic throughput bound of the closed transport
// network at a fixed population of client threads: each thread cycles
// client → wire → server → wire → client, and each of the three
// stations serves one call at a time. With R0 the sum of the station
// demands (the unloaded round trip) and Dmax the largest demand,
// throughput is X(N) = min(N/R0, 1/Dmax) — bounded by the population
// below the knee N* = R0/Dmax and by the bottleneck station above it.
type Bound struct {
	Threads       int
	Mbps          float64 // payload megabits per second
	MeanLatencyUS float64 // per-call latency N/X, by Little's law
	Knee          float64 // thread count N* = R0/Dmax where the bottleneck saturates
	ClientUtil    float64 // X·D per station
	WireUtil      float64
	ServerUtil    float64
}

// Bound evaluates the asymptotic bound at the given number of client
// threads (outstanding calls). It panics on threads < 1 or an invalid
// configuration.
func (c Config) Bound(threads int) Bound {
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		panic(err)
	}
	if threads < 1 {
		panic("rpc: need at least one client thread")
	}
	perByte := func(centi uint64) uint64 { return centi * uint64(c.PayloadBytes) / 100 }
	call := &Message{Kind: Call, Payload: make([]byte, c.PayloadBytes)}
	// At 10 Mbit/s one bit takes exactly one 100 ns cycle.
	client := float64(c.ClientFixedCycles + perByte(c.ClientPerByteCentiCycles) + c.ClientFinishCycles)
	wire := float64(c.WireFixedCycles + call.WireBits() + c.ReplyWireCycles)
	server := float64(c.ServerServiceCycles(c.PayloadBytes))

	r0 := client + wire + server
	dmax := max(client, wire, server)
	n := float64(threads)
	x := min(n/r0, 1/dmax) // calls per cycle
	cyclesPerSec := 1e9 / sim.CycleNS
	return Bound{
		Threads:       threads,
		Mbps:          x * cyclesPerSec * float64(c.PayloadBytes) * 8 / 1e6,
		MeanLatencyUS: n / x * sim.CycleNS / 1000,
		Knee:          r0 / dmax,
		ClientUtil:    x * client,
		WireUtil:      x * wire,
		ServerUtil:    x * server,
	}
}
