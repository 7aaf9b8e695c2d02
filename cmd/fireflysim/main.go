// Command fireflysim runs one Firefly configuration under a chosen
// workload and prints the measurement report.
//
// Examples:
//
//	fireflysim -cpus 5 -seconds 0.05
//	fireflysim -cpus 7 -protocol mesi -miss 0.15 -share 0.3
//	fireflysim -cpus 4 -variant cvax -workload exerciser
//	fireflysim -cpus 4 -workload make
//	fireflysim -cpus 2 -seconds 0.001 -trace out.json -trace-format chrome
//	fireflysim -cpus 4 -arb rr -sched steal -workload exerciser
//	fireflysim -experiment table1sim -workers 4
//	fireflysim -experiment policysweep -arb fixed,fcfs -sched oldest
//	fireflysim -cpus 5 -check -seconds 0.005
//	fireflysim -cpus 4 -faults "all=1e-4" -check -seconds 0.005
//	fireflysim -replay repro.replay
//	fireflysim -cluster 2 -callers 3 -seconds 0.5
//	fireflysim -cluster 3 -faults "drop=0.02" -seconds 0.2
//	fireflysim -cluster 64 -segments 8 -workers 4 -callers 1 -seconds 0.01
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"firefly"
	"firefly/internal/check"
	"firefly/internal/cluster"
	"firefly/internal/experiments"
	"firefly/internal/fault"
	"firefly/internal/machine"
	"firefly/internal/mbus"
	"firefly/internal/obs"
	"firefly/internal/rpc"
	"firefly/internal/sim"
	"firefly/internal/topaz"
	"firefly/internal/trace"
	"firefly/internal/traffic"
	"firefly/internal/verify"
	"firefly/internal/workload"
)

// runVerify exhaustively checks one protocol (or the whole shipped suite)
// in the abstract counter model, printing per-space results and exiting 1
// when a counterexample is found. When out is non-empty the smallest
// counterexample is concretized into a replay file runnable with -replay.
func runVerify(name, out string) {
	names := []string{name}
	if name == "all" {
		names = verify.ShippedProtocolNames()
	}
	unsafe := false
	for _, n := range names {
		r, err := verify.ForProtocol(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fireflysim: %v\n", err)
			os.Exit(2)
		}
		for _, sp := range append(append([]*verify.Space{}, r.Exact...), r.Symbolic) {
			kLabel := fmt.Sprintf("k=%d", sp.K)
			if sp.K == 0 {
				kLabel = "k=ω"
			}
			verdict := "safe"
			if sp.Counterexample != nil {
				verdict = "UNSAFE (" + sp.Counterexample.Kind + ")"
			}
			fmt.Printf("verify %s %s: %d states, %d transitions, diameter %d: %s\n",
				n, kLabel, sp.States, sp.Transitions, sp.Diameter, verdict)
		}
		ce := r.Counterexample()
		if ce == nil {
			fmt.Printf("verify %s: SAFE — all invariants hold in every reachable configuration\n", n)
			continue
		}
		unsafe = true
		fmt.Printf("verify %s: %s\n", n, ce)
		if out != "" {
			cfg, sched, err := verify.Concretize(r.Model, ce)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fireflysim: concretize: %v\n", err)
				os.Exit(2)
			}
			if err := check.SaveReplay(out, cfg, sched); err != nil {
				fmt.Fprintf(os.Stderr, "fireflysim: %v\n", err)
				os.Exit(2)
			}
			fmt.Printf("verify %s: counterexample schedule written to %s (run with -replay)\n", n, out)
		}
	}
	if unsafe {
		os.Exit(1)
	}
}

// runCluster drives N Fireflies on shared Ethernet segments: node 0
// runs the RPC server, every other node aims caller threads at it, and
// the run reports per-node call counts plus wire-level statistics. With
// -segments > 1 the machines split across bridged wires, and -workers
// shards the member machines across goroutines inside the engine's
// wire-bounded windows (output is byte-identical for any value).
func runCluster(n, segments, workers, callers int, seconds float64, seed uint64, faults string) {
	if n < 2 {
		fmt.Fprintf(os.Stderr, "fireflysim: -cluster %d: a cluster needs at least 2 machines\n", n)
		os.Exit(2)
	}
	if segments < 1 || segments > n {
		fmt.Fprintf(os.Stderr, "fireflysim: -segments %d: need between 1 and %d segments\n", segments, n)
		os.Exit(2)
	}
	if callers < 1 {
		fmt.Fprintf(os.Stderr, "fireflysim: -callers %d: need at least 1 caller thread\n", callers)
		os.Exit(2)
	}
	if workers < 1 {
		workers = cluster.DefaultWorkers()
	}
	cfg := cluster.Config{Machines: n, Segments: segments, Workers: workers, Seed: seed}
	if faults != "" {
		fcfg, err := fault.ParseSpec(faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fireflysim: %v\n", err)
			os.Exit(2)
		}
		cfg.Faults = &fcfg
	}
	cl := cluster.New(cfg)
	cl.Node(0).StartServer()
	for i := 1; i < n; i++ {
		cl.Node(i).StartCallers(callers, 0, 0)
	}
	cl.RunSeconds(seconds)

	var payload uint64
	fmt.Printf("cluster: %d machines on %d segment(s), %d caller threads each, %d workers, %.3f simulated seconds\n",
		n, segments, callers, workers, seconds)
	for i := 1; i < n; i++ {
		st := cl.Node(i).Stats()
		payload += st.BytesMoved.Value()
		fmt.Printf("node %d: %d calls completed (%d issued, %d retransmits, %d failed), mean latency %.0f µs\n",
			i, st.CallsCompleted.Value(), st.CallsIssued.Value(),
			st.Retransmits.Value(), st.CallsFailed.Value(), cl.Node(i).MeanLatencyUS())
	}
	srv := cl.Node(0).Stats()
	fmt.Printf("node 0 (server): %d calls served, %d duplicates absorbed\n",
		srv.Served.Value(), srv.DupCalls.Value())
	var clients []*rpc.Node
	for i := 1; i < n; i++ {
		clients = append(clients, cl.Node(i))
	}
	if h := rpc.MergeLatencies(clients...); h.Count() > 0 {
		fmt.Printf("fleet latency: p50 %.0f µs, p95 %.0f µs, p99 %.0f µs over %d calls\n",
			rpc.CyclesToUS(h.Percentile(0.50)), rpc.CyclesToUS(h.Percentile(0.95)),
			rpc.CyclesToUS(h.Percentile(0.99)), h.Count())
	}
	fmt.Printf("payload: %.2f Mbit/s across the fleet\n", float64(payload)*8/seconds/1e6)
	for k := 0; k < cl.NumSegments(); k++ {
		seg := cl.SegmentAt(k).Stats()
		fmt.Printf("wire %d: utilization %.2f, %d frames (%d collisions, %d deferrals, %d dropped)\n",
			k, cl.SegmentAt(k).Utilization(),
			seg.Frames.Value(), seg.Collisions.Value(), seg.Deferrals.Value(),
			seg.Dropped.Value())
	}
	if br := cl.Bridge(); br != nil {
		fmt.Printf("bridge: %d frames forwarded, %d unroutable\n",
			br.Stats().Forwarded.Value(), br.Stats().Unroutable.Value())
	}
	if plan := cl.NetFaults(); plan != nil {
		fmt.Printf("faults: %d frames dropped by the plan\n", plan.Stats().NetDrops.Value())
	}
}

// runTraffic drives the fleet traffic engine: member 0 is the
// load-balancing front end terminating an open-loop user population and
// every other member serves. The topology defaults to a 16-machine,
// 4-segment bridged fleet when -cluster/-segments are left unset; the
// report is byte-identical at any -workers value.
func runTraffic(spec string, n, segments, workers int, seconds float64, seed uint64, faults string) {
	ts, err := traffic.ParseSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fireflysim: %v\n", err)
		os.Exit(2)
	}
	if n == 0 {
		n = 16
		if segments == 1 {
			segments = 4
		}
	}
	if n < 2 {
		fmt.Fprintf(os.Stderr, "fireflysim: -cluster %d: traffic needs a balancer and at least one server\n", n)
		os.Exit(2)
	}
	if segments < 1 || segments > n {
		fmt.Fprintf(os.Stderr, "fireflysim: -segments %d: need between 1 and %d segments\n", segments, n)
		os.Exit(2)
	}
	if workers < 1 {
		workers = cluster.DefaultWorkers()
	}
	cfg := cluster.Config{
		Machines:  n,
		Segments:  segments,
		Workers:   workers,
		Seed:      seed,
		NodePatch: ts.NodePatch(),
	}
	// Queueing delay near the admission bound must stay inside the
	// retransmit timer, or the tail measures duplicate suppression
	// instead of the queue.
	cfg.Node.RetransmitCycles = 2_000_000
	if faults != "" {
		fcfg, err := fault.ParseSpec(faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fireflysim: %v\n", err)
			os.Exit(2)
		}
		cfg.Faults = &fcfg
	}
	cl := cluster.New(cfg)
	eng := traffic.Attach(cl, ts)
	cl.RunSeconds(seconds)
	fmt.Printf("traffic: %d machines on %d segment(s), %d workers, %.3f simulated seconds\n",
		n, segments, workers, seconds)
	pred := ts.Predict(rpc.Config{}, n-1)
	fmt.Printf("analytic: %.0f calls/s offered, per-node rho %.2f, knee %.0f sessions/s\n",
		pred.CallsPerSecond, pred.Rho, pred.KneeSessionsPerSecond)
	fmt.Print(eng.Report())
}

func main() {
	cpus := flag.Int("cpus", 5, "number of processors (hardware shipped 1-7)")
	variant := flag.String("variant", "microvax", "processor variant: microvax or cvax")
	protocol := flag.String("protocol", "firefly", "coherence protocol: firefly, dragon, berkeley, mesi, write-through-invalidate")
	seconds := flag.Float64("seconds", 0.02, "simulated seconds to run")
	warmup := flag.Float64("warmup", 0.002, "simulated seconds of warmup excluded from measurement")
	miss := flag.Float64("miss", 0.2, "synthetic workload miss rate M")
	share := flag.Float64("share", 0.1, "synthetic workload sharing fraction S")
	wl := flag.String("workload", "synthetic", "workload: synthetic, exerciser, make, pipeline, compiler")
	lineWords := flag.Int("linewords", 1, "cache line size in longwords (hardware: 1)")
	cacheLines := flag.Int("cachelines", 0, "cache lines (0 = variant default)")
	seed := flag.Uint64("seed", 1, "random seed")
	tracePath := flag.String("trace", "", "write an event trace to this file")
	traceFormat := flag.String("trace-format", "jsonl", "trace format: jsonl or chrome")
	arb := flag.String("arb", "fixed", "MBus arbitration policy: fixed, rr, fcfs (with -experiment policysweep: comma-separated axis restriction)")
	sched := flag.String("sched", "", "kernel dispatch policy: averse, oldest, steal (default: workload's own; with -experiment policysweep: comma-separated axis restriction)")
	experiment := flag.String("experiment", "", "run a named sweep experiment instead of a single machine (see cmd/tables -list)")
	workers := flag.Int("workers", 0, "worker goroutines: the sweep workers of -experiment, and the phase-A workers that step member machines in -cluster and -traffic runs (0 = one per CPU; output is identical for any value)")
	checkFlag := flag.Bool("check", false, "run the coherence checker alongside the workload (oracle + invariant walks)")
	faults := flag.String("faults", "", `fault-injection spec, e.g. "bus=1e-4,mem=1e-4" or "all=1e-4" (keys: bus, timeout, mem, memunc, nxm, stall, tag, all, retries, backoff, stallcycles, hold, start, end, seed, addrmin, addrmax)`)
	replay := flag.String("replay", "", "re-execute a coherence-checker replay file and report the outcome")
	verifyProto := flag.String("verify", "", `exhaustively verify a protocol's coherence invariants in the abstract counter model ("all" = the whole shipped suite); exits 1 on a counterexample`)
	verifyOut := flag.String("verify-out", "", "with -verify: write the concretized counterexample as a replay file (runnable with -replay)")
	clusterN := flag.Int("cluster", 0, "run an N-machine cluster on a shared Ethernet instead of one machine (node 0 serves, the rest call)")
	callers := flag.Int("callers", 3, "caller threads per client machine in -cluster mode")
	segments := flag.Int("segments", 1, "Ethernet segments in -cluster mode, joined store-and-forward by a bridge (machines split in contiguous blocks)")
	travel := flag.Uint64("travel", 0, "time-travel: after the run, re-execute a fresh machine from the same flags to this cycle and print the report there (synthetic workload only; 0 = off)")
	trafficSpec := flag.String("traffic", "", `fleet traffic spec, e.g. "rate=2000,mix=file:6/make:3/mdc:1,lb=least,queue=32,seed=5": member 0 load-balances an open-loop user population over the rest (defaults to a 16-machine 4-segment fleet unless -cluster/-segments are set)`)
	flag.Parse()

	for _, d := range []struct {
		name string
		v    float64
	}{{"seconds", *seconds}, {"warmup", *warmup}} {
		if !(d.v >= 0) || math.IsInf(d.v, 1) {
			fmt.Fprintf(os.Stderr, "fireflysim: -%s %v: need a finite, non-negative duration\n", d.name, d.v)
			os.Exit(2)
		}
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "fireflysim: -workers %d: need 0 (one per CPU) or a positive count\n", *workers)
		os.Exit(2)
	}

	if *verifyProto != "" {
		runVerify(*verifyProto, *verifyOut)
		return
	}

	if *replay != "" {
		res, err := check.RunReplayFile(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fireflysim: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("replay: %d checked ops, %d walks, %d cycles\n", res.Checked, res.Walks, res.Cycles)
		if res.Ok() {
			fmt.Println("replay: coherent (no violations)")
			return
		}
		for _, v := range res.Violations {
			fmt.Printf("replay: VIOLATION %v\n", v)
		}
		os.Exit(1)
	}

	if *trafficSpec != "" {
		runTraffic(*trafficSpec, *clusterN, *segments, *workers, *seconds, *seed, *faults)
		return
	}

	if *clusterN != 0 {
		runCluster(*clusterN, *segments, *workers, *callers, *seconds, *seed, *faults)
		return
	}

	if *experiment != "" {
		ecfg := experiments.Config{Workers: *workers, Segments: *segments}
		// Only a flag the user actually set restricts a sweep axis; the
		// -arb default would otherwise silently collapse policysweep.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "arb":
				ecfg.Arbs = strings.Split(*arb, ",")
			case "sched":
				ecfg.Scheds = strings.Split(*sched, ",")
			}
		})
		if err := ecfg.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "fireflysim: %v\n", err)
			os.Exit(2)
		}
		r := experiments.ByID(*experiment)
		if r == nil {
			fmt.Fprintf(os.Stderr, "fireflysim: unknown experiment %q (see cmd/tables -list)\n", *experiment)
			os.Exit(2)
		}
		fmt.Println(r.Run(ecfg))
		return
	}

	var cfg machine.Config
	switch *variant {
	case "microvax":
		cfg = machine.MicroVAXConfig(*cpus)
	case "cvax":
		cfg = machine.CVAXConfig(*cpus)
	default:
		fmt.Fprintf(os.Stderr, "fireflysim: unknown variant %q\n", *variant)
		os.Exit(2)
	}
	proto, ok := firefly.ProtocolByName(*protocol)
	if !ok {
		fmt.Fprintf(os.Stderr, "fireflysim: unknown protocol %q (known: %s)\n",
			*protocol, strings.Join(firefly.ProtocolNames(), ", "))
		os.Exit(2)
	}
	cfg.Protocol = proto
	arbiter, ok := mbus.NewArbiterByName(*arb)
	if !ok {
		fmt.Fprintf(os.Stderr, "fireflysim: unknown arbitration policy %q (known: %s)\n",
			*arb, strings.Join(mbus.ArbiterNames(), ", "))
		os.Exit(2)
	}
	cfg.Arbiter = arbiter
	var dispatch topaz.DispatchPolicy
	if *sched != "" {
		dispatch, ok = topaz.PolicyByName(*sched)
		if !ok {
			fmt.Fprintf(os.Stderr, "fireflysim: unknown dispatch policy %q (known: %s)\n",
				*sched, strings.Join(topaz.PolicyNames(), ", "))
			os.Exit(2)
		}
	}
	cfg.Seed = *seed
	cfg.LineWords = *lineWords
	if *cacheLines != 0 {
		cfg.CacheLines = *cacheLines
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "fireflysim: %v\n", err)
		os.Exit(2)
	}
	load := trace.SyntheticLoad{
		MissRate:           *miss,
		ShareFraction:      *share,
		SharedReadFraction: *share / 2,
	}
	if *wl == "synthetic" {
		if err := load.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "fireflysim: %v\n", err)
			os.Exit(2)
		}
	}
	if *faults != "" {
		fcfg, err := fault.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fireflysim: %v\n", err)
			os.Exit(2)
		}
		cfg.Faults = &fcfg
	}
	warm := sim.SecondsToCycles(*warmup)
	if *travel > 0 {
		switch {
		case *wl != "synthetic":
			fmt.Fprintf(os.Stderr, "fireflysim: -travel only supports the synthetic workload (got %q)\n", *wl)
			os.Exit(2)
		case *checkFlag:
			fmt.Fprintln(os.Stderr, "fireflysim: -travel cannot be combined with -check")
			os.Exit(2)
		case *travel < warm:
			fmt.Fprintf(os.Stderr, "fireflysim: -travel %d is before the end of warmup at cycle %d\n", *travel, warm)
			os.Exit(2)
		}
	}
	m := machine.New(cfg)

	var checker *check.Checker
	if *checkFlag {
		var err error
		checker, err = check.Attach(m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fireflysim: %v\n", err)
			os.Exit(2)
		}
	}

	var sink interface {
		obs.Observer
		Close() error
	}
	if *tracePath != "" {
		if *traceFormat != "jsonl" && *traceFormat != "chrome" {
			fmt.Fprintf(os.Stderr, "fireflysim: unknown trace format %q (known: jsonl, chrome)\n", *traceFormat)
			os.Exit(2)
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fireflysim: %v\n", err)
			os.Exit(1)
		}
		if *traceFormat == "jsonl" {
			sink = obs.NewJSONL(f)
		} else {
			sink = obs.NewChrome(f)
		}
		m.Trace(sink)
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "fireflysim: closing trace: %v\n", err)
			}
			f.Close()
		}()
	}

	budget := sim.SecondsToCycles(*seconds)
	switch *wl {
	case "synthetic":
		m.AttachSyntheticLoad(load)
		m.Warmup(warm)
		m.Run(budget)

	case "exerciser":
		k := topaz.NewKernel(m, topaz.Config{Quantum: 1500, Dispatch: dispatch, Seed: *seed})
		ex := workload.NewExerciser(k, workload.ExerciserConfig{
			Threads: 16, Rounds: 1_000_000, SharedFraction: 0.35, Seed: *seed,
		})
		ex.Step(warm)
		m.ResetStats()
		ex.Step(budget)

	case "make":
		if dispatch == nil {
			dispatch = topaz.MigrationAverse{}
		}
		k := topaz.NewKernel(m, topaz.Config{Quantum: 2000, Dispatch: dispatch, Seed: *seed})
		res := workload.RunMake(k, workload.StandardBuild(8, 40_000), budget*100)
		fmt.Printf("parallel make: finished=%v in %.2f Mcycles (ok=%v)\n",
			len(res.Finished), float64(res.Cycles)/1e6, res.OK)

	case "pipeline":
		k := topaz.NewKernel(m, topaz.Config{Quantum: 2000, Dispatch: dispatch, Seed: *seed})
		res := workload.RunPipeline(k, workload.PipelineConfig{}, budget*100)
		fmt.Printf("pipeline: %d items in %.2f Mcycles (ok=%v)\n",
			len(res.Output), float64(res.Cycles)/1e6, res.OK)

	case "compiler":
		k := topaz.NewKernel(m, topaz.Config{Quantum: 2000, Dispatch: dispatch, Seed: *seed})
		res := workload.RunCompiler(k, workload.CompilerConfig{}, budget*100)
		fmt.Printf("parallel compile: %d procedures in %.2f Mcycles (ok=%v)\n",
			len(res.Compiled), float64(res.Cycles)/1e6, res.OK)

	default:
		fmt.Fprintf(os.Stderr, "fireflysim: unknown workload %q\n", *wl)
		os.Exit(2)
	}

	fmt.Print(m.Report())

	if *travel > 0 {
		// Time travel by re-execution: the run is a function of cfg and
		// the seed, so a fresh machine driven the same way reaches the
		// state at any past cycle. It gets its own arbiter, because a
		// stateful one must not be shared with the first machine's bus,
		// and traces only the re-executed window from warmup to K.
		cfg.Arbiter, _ = mbus.NewArbiterByName(*arb)
		m = machine.New(cfg)
		m.AttachSyntheticLoad(load)
		m.Warmup(warm)
		if sink != nil {
			m.Trace(sink)
		}
		m.Run(*travel - warm)
		fmt.Printf("\ntime-travel: restored to cycle %d, replayed to cycle %d\n", warm, uint64(m.Clock().Now()))
		fmt.Print(m.Report())
	}

	if plan := m.Faults(); plan != nil {
		fs := plan.Stats()
		var mchecks, offline uint64
		for i := 0; i < cfg.Processors; i++ {
			mchecks += m.Cache(i).Stats().MachineChecks
		}
		for _, p := range m.Processors() {
			if p.Halted() {
				offline++
			}
		}
		fmt.Printf("faults: %d injected (bus parity %d, bus timeout %d, mem soft %d, mem uncorrectable %d, dma nxm %d, dma stall %d, tag parity %d); %d machine checks\n",
			fs.Total(), fs.BusParity.Value(), fs.BusTimeouts.Value(),
			fs.MemSoft.Value(), fs.MemUncorrect.Value(),
			fs.DMANXM.Value(), fs.DMAStalls.Value(), fs.TagParity.Value(), mchecks)
	}

	if checker != nil {
		checker.Walk()
		fmt.Printf("coherence check: %d checked ops, %d walks\n", checker.Checked(), checker.Walks())
		if checker.Ok() {
			fmt.Println("coherence check: PASS")
		} else {
			for _, v := range checker.Violations() {
				fmt.Printf("coherence check: VIOLATION %v\n", v)
			}
			if n := checker.Dropped(); n > 0 {
				fmt.Printf("coherence check: %d further violations not shown\n", n)
			}
			os.Exit(1)
		}
	}
}
