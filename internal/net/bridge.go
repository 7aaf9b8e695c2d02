package net

import (
	"fmt"

	"firefly/internal/obs"
	"firefly/internal/sim"
	"firefly/internal/stats"
)

// Bridge joins Ethernet segments store-and-forward, the way DEC's LAN
// Bridge 100 extended a site network past one coax run: it listens on
// every attached segment, captures frames whose destination lives on
// another port, holds each for a forwarding latency, and retransmits it
// on the destination segment, contending for that wire like any other
// station. A bridged frame therefore pays two serializations plus the
// bridge latency — cross-segment RPC sees it as added wire time — while
// same-segment traffic on different ports proceeds in parallel, which is
// what lets a multi-segment cluster scale past one wire's 10 Mbit/s.
//
// The bridge does not ack or retransmit: a forwarded frame abandoned by
// CSMA/CD backoff on the destination segment is lost, exactly like a
// frame lost on a single wire, and the RPC transport's retransmission
// recovers it. Routing is delegated to the owner (the cluster), which
// reads the transport's destination field out of the frame words.
type Bridge struct {
	clock *sim.Clock
	cfg   BridgeConfig
	route RouteFunc
	ports []*Station
	held  []heldFrame

	tracer *obs.Tracer
	stats  BridgeStats
}

// BridgeConfig tunes the bridge.
type BridgeConfig struct {
	// ForwardCycles is the store-and-forward latency between a frame
	// fully arriving on one port and the bridge first contending for the
	// destination wire (default 0: the frame is ready the next cycle).
	ForwardCycles uint64
}

// RouteFunc maps a captured frame to a destination: the port to forward
// on and the local station number on that port's segment. ok=false drops
// the frame as unroutable (counted, like a real bridge's filter).
type RouteFunc func(words []uint32, inPort int) (outPort, localDst int, ok bool)

// BridgeStats counts bridge activity.
type BridgeStats struct {
	Forwarded  stats.Counter // frames captured and queued for another port
	Unroutable stats.Counter // frames with no route (or routed to their own port)
}

// heldFrame is one frame in the store-and-forward queue.
type heldFrame struct {
	release sim.Cycle
	outPort int
	frame   Frame
}

// NewBridge builds a bridge on the cluster clock with the given routing
// function. Attach ports with AttachPort before running.
func NewBridge(clock *sim.Clock, route RouteFunc, cfg BridgeConfig) *Bridge {
	if route == nil {
		panic("net: bridge without a route function")
	}
	return &Bridge{clock: clock, cfg: cfg, route: route}
}

// AttachPort connects the bridge to a segment and returns the port
// number. The bridge occupies one station on the segment; frames
// addressed to that station are candidates for forwarding.
func (b *Bridge) AttachPort(seg *Segment) int {
	port := len(b.ports)
	st := seg.Attach(func(f Frame) { b.inbound(port, f) })
	b.ports = append(b.ports, st)
	return port
}

// Pending returns the number of frames held for forwarding (frames
// already handed to a destination station's queue are that segment's).
func (b *Bridge) Pending() int { return len(b.held) }

// Stats returns a snapshot of the bridge counters.
func (b *Bridge) Stats() BridgeStats { return b.stats }

// SetTracer points the bridge's emission sites at tr (nil disables).
func (b *Bridge) SetTracer(tr *obs.Tracer) { b.tracer = tr }

// RegisterStats names the bridge counters in a registry.
func (b *Bridge) RegisterStats(r *stats.Registry) {
	r.RegisterCounter("bridge.forwarded", &b.stats.Forwarded)
	r.RegisterCounter("bridge.unroutable", &b.stats.Unroutable)
}

// inbound is the receive handler of every port: route, then hold the
// frame until its forwarding latency has elapsed.
func (b *Bridge) inbound(port int, f Frame) {
	out, dst, ok := b.route(f.Words, port)
	if !ok || out == port || out < 0 || out >= len(b.ports) {
		b.stats.Unroutable.Inc()
		return
	}
	b.stats.Forwarded.Inc()
	if b.tracer != nil {
		b.tracer.Emit(obs.Event{
			Cycle: uint64(b.clock.Now()),
			Kind:  obs.KindNetTx,
			Unit:  int32(port),
			A:     uint64(len(f.Words)),
			B:     uint64(out),
		})
	}
	b.held = append(b.held, heldFrame{
		release: b.clock.Now() + sim.Cycle(b.cfg.ForwardCycles) + 1,
		outPort: out,
		frame:   Frame{Dst: dst, Words: f.Words},
	})
}

// Step releases every held frame whose forwarding latency has elapsed
// onto its destination segment. The cluster steps the bridge once per
// cycle, before the segments, so a released frame contends for the
// destination wire in the same cycle regardless of segment order.
func (b *Bridge) Step() {
	now := b.clock.Now()
	kept := b.held[:0]
	for _, h := range b.held {
		if h.release > now {
			kept = append(kept, h)
			continue
		}
		b.ports[h.outPort].Send(h.frame, nil)
	}
	for i := len(kept); i < len(b.held); i++ {
		b.held[i] = heldFrame{}
	}
	b.held = kept
}

// NextEvent reports the earliest future cycle at which Step may release
// a held frame, or Never with nothing held. Frames already released are
// the destination segment's events, covered by its own NextEvent.
func (b *Bridge) NextEvent(now sim.Cycle) sim.Cycle {
	ev := sim.Never
	for _, h := range b.held {
		r := h.release
		if r <= now {
			r = now + 1
		}
		ev = sim.EarliestEvent(ev, r)
	}
	return ev
}

// String identifies the bridge in panics and logs.
func (b *Bridge) String() string {
	return fmt.Sprintf("bridge(%d ports, %d held)", len(b.ports), len(b.held))
}
