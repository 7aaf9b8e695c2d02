package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"time"

	"firefly/internal/cluster"
	"firefly/internal/machine"
	"firefly/internal/model"
	"firefly/internal/rpc"
	"firefly/internal/sim"
	"firefly/internal/stats"
	"firefly/internal/trace"
	"firefly/internal/traffic"
)

// sizes fixes how much simulated work one repetition does. Every
// repetition of a workload does the same work for a given seed.
type sizes struct {
	t1Warm, t1Cycles       uint64 // per Table 1 point
	fleetFill, fleetCycles uint64 // fleet-idle pipeline fill and measured cycles
	trafficMinCalls        uint64 // traffic-live runs until this many calls complete
	trafficChunkS          float64
	trafficMaxS            float64 // simulated-time cap; reaching it fails the run
}

// fullSizes is what the benchmark command runs. trafficMinCalls is 1000
// so that p99 has ten samples beyond it.
var fullSizes = sizes{
	t1Warm: 80_000, t1Cycles: 400_000,
	fleetFill: 200_000, fleetCycles: 2_000_000,
	trafficMinCalls: 1000, trafficChunkS: 0.05, trafficMaxS: 2.0,
}

// shortSizes is the self-test's shortened run of each workload.
var shortSizes = sizes{
	t1Warm: 40_000, t1Cycles: 120_000,
	fleetFill: 50_000, fleetCycles: 100_000,
	trafficMinCalls: 20, trafficChunkS: 0.01, trafficMaxS: 0.5,
}

// Table 1 cross-check parameters (§5.2): the synthetic load the model
// assumes and the grid the ROADMAP's cold sweep covers.
var (
	table1NPs  = []int{2, 6, 10}
	table1Load = trace.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05}
)

// Fleet shapes: fleet-idle is the 64-node bridged fleet of the scaling
// benchmarks, traffic-live the traffic experiment's 16-node fleet.
const (
	fleetMachines, fleetSegments     = 64, 8
	trafficMachines, trafficSegments = 16, 4
)

// Span phases. Build constructs the simulated hardware, warm brings the
// workload to the measurement boundary, measure is the timed phase.
const (
	phaseBuild   = "build"
	phaseWarm    = "warm"
	phaseMeasure = "measure"
)

// rep is the outcome of one repetition: a fresh build, its warm-up and
// its measured phase.
type rep struct {
	build, warm, measure time.Duration
	cycles               uint64 // member machine-cycles in the measured phase
	// slices are the throughputs (Mcycles/s) of the timed slices of a
	// measured phase long enough to have several: traffic-live's chunks.
	slices            []float64
	attempted, failed uint64 // sweep points or RPC calls
	digest            uint64 // hash of every simulated statistic
	sim               map[string]float64
	err               error // first correctness check that failed
}

func (r rep) setup() time.Duration { return r.build + r.warm }

// workload is one benchmark input. run performs a repetition with the
// given cluster worker count; with setupOnly it stops at the
// measurement boundary.
type workload struct {
	name  string
	fleet bool // runs on a cluster, so worker counts must agree
	run   func(seed uint64, workers int, sz sizes, tr *tracer, setupOnly bool) rep
}

var workloads = []workload{
	{name: "table1-cold", run: table1Cold},
	{name: "fleet-idle", fleet: true, run: fleetIdle},
	{name: "traffic-live", fleet: true, run: trafficLive},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// derive turns the workload seed into an independent non-zero seed per
// use (splitmix64).
func derive(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		return 1
	}
	return z
}

// t1Point is one simulated column of the Table 1 cross-check.
type t1Point struct {
	np      int
	load    float64
	tpi     float64
	tp      float64
	modelTP float64
	instrs  uint64
}

// table1Cold builds, warms and measures each grid point in turn on a
// fresh machine.
func table1Cold(seed uint64, _ int, sz sizes, tr *tracer, setupOnly bool) rep {
	var r rep
	h := fnv.New64a()
	agg := counters{}
	var pts []t1Point
	params := model.MicroVAX()
	for _, np := range table1NPs {
		var m *machine.Machine
		r.build += tr.do("machine.New", phaseBuild, func() {
			cfg := machine.MicroVAXConfig(np)
			cfg.Seed = derive(seed, uint64(np))
			m = machine.New(cfg)
			m.AttachSyntheticLoad(table1Load)
		})
		r.warm += tr.do("Machine.Warmup", phaseWarm, func() { m.Warmup(sz.t1Warm) })
		if setupOnly {
			continue
		}
		r.measure += tr.do("Machine.Run", phaseMeasure, func() { m.Run(sz.t1Cycles) })
		r.cycles += sz.t1Cycles
		fmt.Fprintf(h, "np %d\n", np)
		hashRegistry(h, m.Registry())
		agg.addRegistry(m.Registry())
		mr := m.Report()
		tpi := mr.MeanTPI()
		pt := t1Point{np: np, load: mr.BusLoad, tpi: tpi, modelTP: params.At(np).TP}
		if tpi > 0 {
			pt.tp = float64(np) * params.BaseTPI / tpi
		}
		for _, c := range mr.PerCPU {
			pt.instrs += c.Instructions
		}
		pts = append(pts, pt)
	}
	if setupOnly {
		return r
	}
	r.attempted = uint64(len(pts))
	r.err = checkTable1(pts)
	if r.err != nil {
		r.failed = r.attempted
	}
	r.digest = h.Sum64()
	r.sim = agg.layerMetrics()
	worst := 0.0
	for _, pt := range pts {
		if e := relErr(pt.tp, pt.modelTP); e > worst {
			worst = e
		}
	}
	r.sim["model_err_pct"] = 100 * worst
	return r
}

// fleetIdle runs the 64-machine bridged fleet: an RPC server on node 0,
// three-thread callers on node 1 (same segment) and node 9 (across the
// bridge), every other member quiesced.
func fleetIdle(seed uint64, workers int, sz sizes, tr *tracer, setupOnly bool) rep {
	var r rep
	var cl *cluster.Cluster
	r.build = tr.do("cluster.New", phaseBuild, func() {
		cl = cluster.New(cluster.Config{
			Machines: fleetMachines, Segments: fleetSegments,
			Seed: derive(seed, 0), Workers: workers,
		})
	})
	callers := []int{1, 9}
	r.warm = tr.do("Cluster.Run", phaseWarm, func() {
		cl.Node(0).StartServer()
		for _, i := range callers {
			cl.Node(i).StartCallers(fleetCallerThreads, 0, 0)
		}
		for i := 2; i < cl.Size(); i++ {
			if i == 9 {
				continue
			}
			m := cl.Machine(i)
			for p := 0; p < m.Config().Processors; p++ {
				m.CPU(p).Halt()
			}
		}
		cl.Run(sz.fleetFill)
	})
	if setupOnly {
		return r
	}
	r.measure = tr.do("Cluster.Run", phaseMeasure, func() { cl.Run(sz.fleetCycles) })
	r.cycles = uint64(cl.Size()) * sz.fleetCycles

	var callerNodes []*rpc.Node
	for _, i := range callers {
		n := cl.Node(i)
		callerNodes = append(callerNodes, n)
		st := n.Stats()
		r.attempted += st.CallsIssued.Value()
		r.failed += st.CallsFailed.Value() + st.ShedReplies.Value()
		if err := checkCallerConservation(i, st, fleetCallerThreads); err != nil && r.err == nil {
			r.err = err
		}
	}
	lat := rpc.MergeLatencies(callerNodes...)
	if lat.Count() == 0 && r.err == nil {
		r.err = fmt.Errorf("fleet-idle: no call completed")
	}
	h := fnv.New64a()
	hashCluster(h, cl)
	hashHist(h, "callers", lat)
	r.digest = h.Sum64()

	agg := clusterCounters(cl)
	r.sim = agg.layerMetrics()
	addNetMetrics(r.sim, cl)
	r.sim["rpc_p50_ms"] = histMS(lat, 0.50)
	r.sim["rpc_p99_ms"] = p99MS(lat)
	secs := float64(cl.Clock().Now()) * sim.CycleNS / 1e9
	r.sim["goodput_calls_per_s"] = float64(lat.Count()) / secs
	r.sim["rpc.server_util"] = float64(cl.Node(0).Stats().ServiceCycles.Value()) / float64(cl.Clock().Now())
	if r.err != nil {
		r.failed = r.attempted
	}
	return r
}

const fleetCallerThreads = 3

// trafficLive runs traffic.DefaultSpec on the traffic experiment's
// fleet from a cold start until enough calls complete for a p99.
func trafficLive(seed uint64, workers int, sz sizes, tr *tracer, setupOnly bool) rep {
	var r rep
	spec := traffic.DefaultSpec()
	spec.Seed = derive(seed, 1)
	var cl *cluster.Cluster
	r.build = tr.do("cluster.New", phaseBuild, func() {
		cfg := cluster.Config{
			Machines: trafficMachines, Segments: trafficSegments,
			Seed: derive(seed, 0), NodePatch: spec.NodePatch(), Workers: workers,
		}
		// As in the traffic experiment: a retransmit timer far beyond
		// queueing delay keeps the tail queueing, not duplicate suppression.
		cfg.Node.RetransmitCycles = 2_000_000
		cl = cluster.New(cfg)
	})
	var eng *traffic.Engine
	r.warm = tr.do("traffic.Attach", phaseWarm, func() { eng = traffic.Attach(cl, spec) })
	if setupOnly {
		return r
	}
	start := cl.Clock().Now()
	r.measure = tr.do("Cluster.Run", phaseMeasure, func() {
		for eng.CallsCompleted() < sz.trafficMinCalls && eng.Elapsed() < sim.Cycle(sz.trafficMaxS*1e9/sim.CycleNS) {
			c0, t0 := cl.Clock().Now(), time.Now()
			cl.RunSeconds(sz.trafficChunkS)
			mc := float64(uint64(cl.Size())*uint64(cl.Clock().Now()-c0)) / 1e6
			r.slices = append(r.slices, mc/time.Since(t0).Seconds())
		}
	})
	r.cycles = uint64(cl.Size()) * uint64(cl.Clock().Now()-start)

	acct := callAccount{
		issued: eng.CallsIssued(), completed: eng.CallsCompleted(),
		shed: eng.CallsShed(), failed: eng.CallsFailed(), inFlight: uint64(eng.InFlight()),
	}
	r.attempted = acct.issued
	r.failed = acct.shed + acct.failed
	r.err = checkTraffic(acct, sz.trafficMinCalls)

	h := fnv.New64a()
	hashCluster(h, cl)
	hashHist(h, "fleet", eng.FleetHist())
	fmt.Fprintf(h, "traffic %+v %d %d\n", acct, eng.SessionsStarted(), eng.SessionsFinished())
	r.digest = h.Sum64()

	agg := clusterCounters(cl)
	r.sim = agg.layerMetrics()
	addNetMetrics(r.sim, cl)
	fh := eng.FleetHist()
	r.sim["rpc_p50_ms"] = histMS(fh, 0.50)
	r.sim["rpc_p99_ms"] = p99MS(fh)
	r.sim["goodput_calls_per_s"] = eng.Goodput()
	r.sim["traffic.calls_issued"] = float64(acct.issued)
	r.sim["traffic.in_flight_end"] = float64(acct.inFlight)
	var svc uint64
	for i := 1; i < cl.Size(); i++ {
		svc += cl.Node(i).Stats().ServiceCycles.Value()
	}
	util := float64(svc) / float64(uint64(eng.Elapsed())*uint64(cl.Size()-1))
	rho := spec.Predict(rpc.Config{}, cl.Size()-1).Rho
	r.sim["rpc.server_util"] = util
	r.sim["model_err_pct"] = 100 * relErr(util, rho)
	if r.err != nil {
		r.failed = r.attempted
	}
	return r
}

// counters sums registry counters across machines, with the per-unit
// index stripped ("cpu3.ticks" and "cpu0.ticks" both add to "cpu.ticks").
type counters map[string]uint64

func (c counters) addRegistry(reg *stats.Registry) {
	for _, nv := range reg.Snapshot() {
		c[unitName(nv.Name)] += nv.Value
	}
}

// unitName strips the digits that follow a leading component name:
// "cache12.read_hits" -> "cache.read_hits".
func unitName(name string) string {
	head, tail, ok := strings.Cut(name, ".")
	if !ok {
		return name
	}
	return strings.TrimRight(head, "0123456789") + "." + tail
}

// clusterCounters sums every member's registry and RPC runtime.
func clusterCounters(cl *cluster.Cluster) counters {
	c := counters{}
	for i := 0; i < cl.Size(); i++ {
		c.addRegistry(cl.Machine(i).Registry())
		st := cl.Node(i).Stats()
		c["node.calls_completed"] += st.CallsCompleted.Value()
		c["node.retransmits"] += st.Retransmits.Value()
		c["node.dup_calls"] += st.DupCalls.Value()
		c["node.calls_shed"] += st.CallsShed.Value()
	}
	return c
}

// layerMetrics derives the simulated per-layer metrics. Metrics a
// workload has no part in stay 0.
func (c counters) layerMetrics() map[string]float64 {
	m := map[string]float64{
		"mbus.load":                 ratio(c["bus.busy_cycles"], c["bus.cycles"]),
		"mbus.wait_per_op":          ratio(c["bus.wait_cycles"], c["bus.ops.total"]),
		"mbus.ops":                  float64(c["bus.ops.total"]),
		"cpu.stall_frac":            ratio(c["cpu.stall_ticks"], c["cpu.ticks"]),
		"cpu.instructions":          float64(c["cpu.instructions"]),
		"core.hit_ratio":            ratio(c["cache.read_hits"]+c["cache.write_hits"], c["cache.reads"]+c["cache.writes"]),
		"core.snoop_hit_ratio":      ratio(c["cache.snoop_hits"], c["cache.snoop_probes"]),
		"core.write_through_shared": float64(c["cache.write_through_shared"]),
		"sim_tpi":                   ratio(c["cpu.ticks"], c["cpu.instructions"]),
		"rpc.calls_completed":       float64(c["node.calls_completed"]),
		"rpc.retransmits":           float64(c["node.retransmits"]),
		"rpc.dup_calls":             float64(c["node.dup_calls"]),
		"rpc.shed":                  float64(c["node.calls_shed"]),
	}
	return m
}

// addNetMetrics records the wire and bridge counters.
func addNetMetrics(m map[string]float64, cl *cluster.Cluster) {
	var coll, def uint64
	for k := 0; k < cl.NumSegments(); k++ {
		st := cl.SegmentAt(k).Stats()
		coll += st.Collisions.Value()
		def += st.Deferrals.Value()
	}
	m["net.seg0_util"] = cl.SegmentAt(0).Utilization()
	m["net.collisions"] = float64(coll)
	m["net.deferrals"] = float64(def)
	if br := cl.Bridge(); br != nil {
		m["net.bridge_forwarded"] = float64(br.Stats().Forwarded.Value())
	}
}

// hashRegistry feeds every named counter of a machine into h.
func hashRegistry(h hash.Hash64, reg *stats.Registry) {
	for _, nv := range reg.Snapshot() {
		fmt.Fprintf(h, "%s=%d\n", nv.Name, nv.Value)
	}
}

// hashCluster feeds every member's registry and RPC counters, every
// segment's counters and the bridge's into h.
func hashCluster(h hash.Hash64, cl *cluster.Cluster) {
	fmt.Fprintf(h, "clock %d\n", cl.Clock().Now())
	for i := 0; i < cl.Size(); i++ {
		fmt.Fprintf(h, "member %d\n", i)
		hashRegistry(h, cl.Machine(i).Registry())
		n := cl.Node(i)
		fmt.Fprintf(h, "node %+v\n", n.Stats())
		hashHist(h, "node", n.Latencies())
	}
	for k := 0; k < cl.NumSegments(); k++ {
		fmt.Fprintf(h, "segment %d %+v\n", k, cl.SegmentAt(k).Stats())
	}
	if br := cl.Bridge(); br != nil {
		fmt.Fprintf(h, "bridge %+v\n", br.Stats())
	}
}

// hashHist feeds a latency histogram's count, sum, max and percentiles
// into h.
func hashHist(h hash.Hash64, label string, lh *stats.LogHist) {
	fmt.Fprintf(h, "%s n=%d sum=%d max=%d", label, lh.Count(), lh.Sum(), lh.Max())
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		fmt.Fprintf(h, " %d", lh.Percentile(p))
	}
	fmt.Fprintln(h)
}

// histMS reads a percentile in simulated milliseconds.
func histMS(h *stats.LogHist, p float64) float64 {
	return rpc.CyclesToUS(h.Percentile(p)) / 1000
}

// p99MS is the p99 in simulated milliseconds, or 0 when fewer than 1000
// samples leave under ten beyond it.
func p99MS(h *stats.LogHist) float64 {
	if h.Count() < 1000 {
		return 0
	}
	return histMS(h, 0.99)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := (got - want) / want
	if d < 0 {
		d = -d
	}
	return d
}
