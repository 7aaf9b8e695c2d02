package cluster

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"firefly/internal/check"
	"firefly/internal/coherence"
	"firefly/internal/fault"
	"firefly/internal/machine"
	"firefly/internal/net"
	"firefly/internal/obs"
)

// TestClusterRunSecondsRounds is the regression test for the truncation
// bug machine.RunSeconds already fixed: 150 ns is 1.5 cycles and must
// round to 2, not truncate to 1 — otherwise machine-level and
// cluster-level runs of the same simulated duration disagree.
func TestClusterRunSecondsRounds(t *testing.T) {
	cl := New(Config{Node: quickNode(), Seed: 1})
	cl.RunSeconds(150e-9)
	if got := cl.Clock().Now(); got != 2 {
		t.Fatalf("RunSeconds(150ns) advanced to cycle %d, want 2 (truncation gives 1)", got)
	}
	for i, m := range cl.Machines() {
		if got := m.Clock().Now(); got != 2 {
			t.Fatalf("machine %d clock at %d after RunSeconds(150ns), want 2", i, got)
		}
	}
}

// TestClusterRunSecondsRejectsBadDurations: a negative or non-finite
// duration must panic naming the value, not run for ~2^63 cycles.
func TestClusterRunSecondsRejectsBadDurations(t *testing.T) {
	cl := New(Config{Node: quickNode(), Seed: 1})
	for _, s := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("RunSeconds(%v) did not panic", s)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, fmt.Sprint(s)) {
					t.Fatalf("RunSeconds(%v) panic %q does not name the value", s, msg)
				}
			}()
			cl.RunSeconds(s)
		}()
	}
	if now := cl.Clock().Now(); now != 0 {
		t.Fatalf("rejected durations advanced the clock to %d", now)
	}
}

// TestClusterRunZeroAllocs pins the serial engine's steady state: an
// idle 4-node cluster on one worker runs its windows without
// allocating, so Run's cost on a quiet fleet is the simulation alone.
func TestClusterRunZeroAllocs(t *testing.T) {
	cl := New(Config{Machines: 4, Workers: 1, Node: quickNode(), Seed: 1})
	cl.Run(200_000)
	if avg := testing.AllocsPerRun(20, func() { cl.Run(20_000) }); avg != 0 {
		t.Fatalf("idle cluster allocates %.1f times per Run(20000), want 0", avg)
	}
}

// TestRunUntilBigStepDifferential proves the big-stepping RunUntil
// triggers at exactly the cycle the old step-every-cycle loop did:
// twin clusters, one driven by an explicit per-cycle loop, one by
// RunUntil, must agree on the trigger cycle and every counter.
func TestRunUntilBigStepDifferential(t *testing.T) {
	build := func() *Cluster {
		cl := New(Config{Node: quickNode(), Seed: 7})
		cl.Node(1).StartServer()
		cl.Node(0).StartCallers(3, 1, 64)
		return cl
	}
	pred := func(cl *Cluster) func() bool {
		return func() bool { return cl.Node(0).Stats().CallsCompleted.Value() >= 200 }
	}
	const max = 20_000_000

	a := build()
	predA := pred(a)
	okA := false
	for i := uint64(0); i < max; i++ {
		if predA() {
			okA = true
			break
		}
		a.Step()
	}
	if !okA {
		okA = predA()
	}

	b := build()
	okB := b.RunUntil(pred(b), max)

	if okA != okB {
		t.Fatalf("stepwise pred=%v, big-step pred=%v", okA, okB)
	}
	if a.Clock().Now() != b.Clock().Now() {
		t.Fatalf("trigger cycle diverged: stepwise %d, big-step %d",
			a.Clock().Now(), b.Clock().Now())
	}
	for i := range a.Machines() {
		ra, rb := a.Machine(i).Registry().String(), b.Machine(i).Registry().String()
		if ra != rb {
			t.Fatalf("machine %d counters diverged\n--- stepwise ---\n%s\n--- big-step ---\n%s", i, ra, rb)
		}
	}
	if fmt.Sprintf("%+v", a.Segment().Stats()) != fmt.Sprintf("%+v", b.Segment().Stats()) {
		t.Fatalf("segment stats diverged:\n%+v\nvs\n%+v", a.Segment().Stats(), b.Segment().Stats())
	}
}

// engineResult captures everything one engine variant produced: the
// rendered per-machine reports, a per-machine field hash of the full
// trace streams, the raw JSONL of every segment's event stream, and the
// wire counters summed over segments and the bridge.
type engineResult struct {
	report   string
	hashes   []uint64
	events   []uint64
	segJSONL [][]byte
	wire     wireTotals
}

// wireTotals sums the wire-event counters of every segment plus the
// bridge's forwards: the event kinds the wire replay must reproduce.
type wireTotals struct {
	collisions, deferrals, aborted, forwarded uint64
}

// runEngine builds a cluster, attaches one trace observer per machine
// and a JSONL sink per segment, applies the workload, and drives it
// either with the serial per-cycle reference loop ("step") or the
// windowed engine ("run") at the given worker count.
func runEngine(t *testing.T, cfg Config, setup func(*Cluster), cycles uint64, engine string, workers int, withOracle bool) engineResult {
	t.Helper()
	cl := New(cfg)
	sinks := make([]*fnvObserver, cl.Size())
	for i, m := range cl.Machines() {
		sinks[i] = &fnvObserver{h: fnv.New64a()}
		m.Trace(sinks[i])
	}
	var checkers []*check.Checker
	if withOracle {
		for _, m := range cl.Machines() {
			c, err := check.Attach(m)
			if err != nil {
				t.Fatal(err)
			}
			checkers = append(checkers, c)
		}
	}
	segBufs := make([]*bytes.Buffer, cl.NumSegments())
	segSinks := make([]*obs.JSONL, cl.NumSegments())
	for k := 0; k < cl.NumSegments(); k++ {
		segBufs[k] = &bytes.Buffer{}
		segSinks[k] = obs.NewJSONL(segBufs[k])
		cl.SegmentAt(k).SetTracer(obs.NewTracer(segSinks[k]))
	}
	setup(cl)
	switch engine {
	case "step":
		for i := uint64(0); i < cycles; i++ {
			cl.Step()
		}
	case "run":
		cl.SetWorkers(workers)
		cl.Run(cycles)
	default:
		t.Fatalf("unknown engine %q", engine)
	}
	for _, s := range segSinks {
		s.Close()
	}
	for i, c := range checkers {
		if c.Checked() == 0 {
			t.Errorf("machine %d oracle validated nothing", i)
		}
		if !c.Ok() {
			t.Errorf("machine %d coherence violation: %v", i, c.First())
		}
	}
	var b strings.Builder
	for i, m := range cl.Machines() {
		fmt.Fprintf(&b, "== machine %d ==\n%s\nnode: %+v\n", i, m.Registry().String(), cl.Node(i).Stats())
	}
	for k := 0; k < cl.NumSegments(); k++ {
		fmt.Fprintf(&b, "== segment %d ==\n%+v\n", k, cl.SegmentAt(k).Stats())
	}
	if br := cl.Bridge(); br != nil {
		fmt.Fprintf(&b, "== bridge ==\n%+v\n", br.Stats())
	}
	fmt.Fprintf(&b, "latency %.3f us, cycles %d\n", cl.Node(0).MeanLatencyUS(), cl.Clock().Now())
	res := engineResult{report: b.String()}
	for k := 0; k < cl.NumSegments(); k++ {
		st := cl.SegmentAt(k).Stats()
		res.wire.collisions += st.Collisions.Value()
		res.wire.deferrals += st.Deferrals.Value()
		res.wire.aborted += st.Aborted.Value()
	}
	if br := cl.Bridge(); br != nil {
		res.wire.forwarded = br.Stats().Forwarded.Value()
	}
	for _, s := range sinks {
		res.hashes = append(res.hashes, s.h.Sum64())
		res.events = append(res.events, s.events)
	}
	for _, buf := range segBufs {
		res.segJSONL = append(res.segJSONL, buf.Bytes())
	}
	return res
}

// diffEngines compares an engine variant against the serial reference.
func diffEngines(t *testing.T, label string, ref, got engineResult) {
	t.Helper()
	for i := range ref.hashes {
		if ref.hashes[i] != got.hashes[i] || ref.events[i] != got.events[i] {
			t.Errorf("%s: machine %d trace diverged: %#x/%d events vs %#x/%d",
				label, i, got.hashes[i], got.events[i], ref.hashes[i], ref.events[i])
		}
	}
	for k := range ref.segJSONL {
		if !bytes.Equal(ref.segJSONL[k], got.segJSONL[k]) {
			t.Errorf("%s: segment %d JSONL diverged (%d vs %d bytes)",
				label, k, len(got.segJSONL[k]), len(ref.segJSONL[k]))
		}
	}
	if ref.report != got.report {
		t.Errorf("%s: report diverged\n--- got ---\n%s\n--- want ---\n%s", label, got.report, ref.report)
	}
}

// fastNet shrinks wire timings so a fixed cycle budget carries many
// calls (the soak test's configuration).
func fastNet(seed uint64) net.Config {
	return net.Config{WordCycles: 8, GapCycles: 24, Seed: seed}
}

// TestParallelDifferential is the tentpole's determinism contract: for
// every coherence protocol, the windowed engine at worker counts 1, 2,
// and 8 produces byte-identical reports, per-machine trace streams, and
// segment JSONL to the serial per-cycle reference loop.
func TestParallelDifferential(t *testing.T) {
	const cycles = 800_000
	for _, proto := range coherence.All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			mcfg := machine.MicroVAXConfig(2)
			mcfg.Protocol = proto
			cfg := Config{
				Machine: mcfg,
				Node:    quickNode(),
				Net:     fastNet(21),
				Seed:    21,
			}
			setup := func(cl *Cluster) {
				cl.Node(1).StartServer()
				cl.Node(0).StartCallers(4, 1, 64)
			}
			ref := runEngine(t, cfg, setup, cycles, "step", 1, false)
			if ref.events[0] == 0 {
				t.Fatal("reference run emitted no trace events; differential proves nothing")
			}
			for _, workers := range []int{1, 2, 8} {
				got := runEngine(t, cfg, setup, cycles, "run", workers, false)
				diffEngines(t, fmt.Sprintf("workers=%d", workers), ref, got)
			}
		})
	}
}

// TestParallelDifferentialLossy repeats the differential over a lossy
// wire (5% injected frame drops) with the coherence oracle attached to
// every machine: retransmission traffic, duplicate suppression, and
// fault-plan draws must all land on identical cycles at any worker
// count, and the oracle must stay green.
func TestParallelDifferentialLossy(t *testing.T) {
	node := quickNode()
	node.RetransmitCycles = 4_000
	cfg := Config{
		Node:   node,
		Net:    fastNet(9),
		Seed:   9,
		Faults: &fault.Config{NetDropRate: 0.05},
	}
	setup := func(cl *Cluster) {
		cl.Node(1).StartServer()
		cl.Node(0).StartCallers(3, 1, 64)
	}
	const cycles = 1_200_000
	ref := runEngine(t, cfg, setup, cycles, "step", 1, true)
	for _, workers := range []int{1, 2, 8} {
		got := runEngine(t, cfg, setup, cycles, "run", workers, true)
		diffEngines(t, fmt.Sprintf("lossy workers=%d", workers), ref, got)
	}
	if !strings.Contains(ref.report, "calls_completed") && ref.report == "" {
		t.Fatal("empty report")
	}
}

// TestMultiSegmentRPC drives calls across the bridge: a four-machine,
// two-segment cluster where the client and server live on different
// wires. Every call and reply crosses the bridge store-and-forward;
// the transport must neither lose nor duplicate anything, and no frame
// may arrive at a station it was not addressed to.
func TestMultiSegmentRPC(t *testing.T) {
	cl := New(Config{Machines: 4, Segments: 2, Node: quickNode(), Net: fastNet(13), Seed: 13})
	if cl.NumSegments() != 2 || cl.Bridge() == nil {
		t.Fatal("topology not built")
	}
	if cl.SegmentOf(0) != 0 || cl.SegmentOf(3) != 1 {
		t.Fatalf("contiguous split broken: machine 0 on segment %d, machine 3 on %d",
			cl.SegmentOf(0), cl.SegmentOf(3))
	}
	cl.Node(3).StartServer()
	cl.Node(0).StartCallers(3, 3, 64)
	const want = 300
	if !cl.RunUntil(func() bool {
		return cl.Node(0).Stats().CallsCompleted.Value() >= want
	}, 100_000_000) {
		t.Fatalf("only %d/%d cross-segment calls completed",
			cl.Node(0).Stats().CallsCompleted.Value(), want)
	}
	if f := cl.Bridge().Stats().Forwarded.Value(); f < 2*want {
		t.Errorf("bridge forwarded %d frames, want >= %d (calls and replies both cross)", f, 2*want)
	}
	if u := cl.Bridge().Stats().Unroutable.Value(); u != 0 {
		t.Errorf("%d unroutable frames at the bridge", u)
	}
	for k := 0; k < 2; k++ {
		if n := cl.SegmentAt(k).Stats().Frames.Value(); n < want {
			t.Errorf("segment %d carried %d frames, want >= %d", k, n, want)
		}
	}
	for i := 0; i < cl.Size(); i++ {
		st := cl.Node(i).Stats()
		if m := st.Misrouted.Value(); m != 0 {
			t.Errorf("node %d saw %d misrouted frames", i, m)
		}
		if st.CallsFailed.Value() != 0 {
			t.Errorf("node %d lost %d calls crossing the bridge", i, st.CallsFailed.Value())
		}
	}
	srv := cl.Node(3).Stats()
	if srv.CallsReceived.Value() > cl.Node(0).Stats().CallsIssued.Value() {
		t.Error("a duplicate call slipped the dedup across the bridge")
	}
}

// TestMultiSegmentParallelDifferential runs the full differential on a
// bridged topology: six machines on three segments, two client machines
// calling a cross-segment server, compared across worker counts.
func TestMultiSegmentParallelDifferential(t *testing.T) {
	cfg := Config{
		Machines: 6,
		Segments: 3,
		Node:     quickNode(),
		Net:      fastNet(31),
		Seed:     31,
	}
	setup := func(cl *Cluster) {
		cl.Node(5).StartServer()
		cl.Node(0).StartCallers(2, 5, 64)
		cl.Node(2).StartCallers(2, 5, 64)
	}
	const cycles = 700_000
	ref := runEngine(t, cfg, setup, cycles, "step", 1, false)
	if !strings.Contains(ref.report, "== bridge ==") {
		t.Fatal("bridged report missing bridge stats")
	}
	for _, workers := range []int{1, 2, 8} {
		got := runEngine(t, cfg, setup, cycles, "run", workers, false)
		diffEngines(t, fmt.Sprintf("bridged workers=%d", workers), ref, got)
	}
}

// TestReplayDifferentialContention drives the event-driven wire replay
// through every wire-event kind it skips between: eight machines on two
// bridged segments, a store-and-forward latency, and callers on five
// stations aimed at servers on both wires, with MaxAttempts low enough
// that collision storms abort frames. The reference must show
// collisions, deferrals, aborts, and bridge forwards — otherwise the
// differential could pass without exercising the skips around them.
func TestReplayDifferentialContention(t *testing.T) {
	node := quickNode()
	node.RetransmitCycles = 6_000
	ncfg := fastNet(41)
	ncfg.MaxAttempts = 3
	cfg := Config{
		Machines: 8,
		Segments: 2,
		Bridge:   net.BridgeConfig{ForwardCycles: 40},
		Node:     node,
		Net:      ncfg,
		Seed:     41,
	}
	setup := func(cl *Cluster) {
		cl.Node(3).StartServer()
		cl.Node(7).StartServer()
		cl.Node(0).StartCallers(2, 7, 64)
		cl.Node(1).StartCallers(2, 3, 64)
		cl.Node(2).StartCallers(2, 7, 64)
		cl.Node(4).StartCallers(2, 3, 64)
		cl.Node(5).StartCallers(2, 7, 64)
	}
	const cycles = 300_000
	ref := runEngine(t, cfg, setup, cycles, "step", 1, false)
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"collisions", ref.wire.collisions},
		{"deferrals", ref.wire.deferrals},
		{"aborted frames", ref.wire.aborted},
		{"bridge forwards", ref.wire.forwarded},
	} {
		if c.v == 0 {
			t.Fatalf("reference run saw no %s; the differential would not exercise them", c.name)
		}
	}
	t.Logf("reference wire events: %+v", ref.wire)
	for _, workers := range []int{1, 2, 8} {
		got := runEngine(t, cfg, setup, cycles, "run", workers, false)
		diffEngines(t, fmt.Sprintf("contention workers=%d", workers), ref, got)
	}
}
