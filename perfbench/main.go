// Command perfbench is the simulator's benchmark. It runs one workload
// through the repository's public constructors (machine.New,
// cluster.New, traffic.Attach), checks that every simulated result is
// correct, and prints its metrics; the last line of standard output is
// one JSON object. Lines before it start with "#" and carry the host
// metadata, every end-to-end metric by name and unit, and (with
// -trace 1) the per-layer attribution tables.
//
//	perfbench -workload table1-cold|fleet-idle|traffic-live -seed 1 -seconds 15 -trace 0|1
//
// With -trace 0 the JSON metrics are the end-to-end metrics, measured
// with profiling off. With -trace 1 a runtime/pprof CPU profile covers
// the measured repetitions and the JSON metrics are the per-layer ones.
// The exit status is non-zero when any correctness check fails.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the workload seed used when none is given;
// heldOutSeed is reserved for re-checking a claimed gain on inputs the
// change was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 1001
)

// minSetups is the least number of set-ups timed per run; workloads
// whose repetitions are long add set-up-only iterations to reach it.
const minSetups = 15

// metricSpec declares one reported metric. sim marks a simulated
// quantity, which repeats exactly for a fixed seed.
type metricSpec struct {
	name, unit string
	sim        bool
}

// endToEnd are the metrics of an untraced run (-trace 0).
var endToEnd = []metricSpec{
	{"sim_mcycles_per_s", "Mcycles/s", false},
	{"setup_s", "s", false},
	{"max_rss_mb", "MB", false},
	{"sim_tpi", "ticks/instr", true},
}

// reportOnly are end-to-end quantities that exist on some workloads
// only, so the JSON of every run cannot carry them as end-to-end
// metrics. An untraced run prints them on "#" lines; the traced run
// carries them among the per-layer metrics. fail_frac is also
// failed/attempted in every run's JSON.
var reportOnly = []metricSpec{
	{"fail_frac", "fraction", false},
	{"rpc_p50_ms", "sim_ms", true},
	{"rpc_p99_ms", "sim_ms", true},
	{"goodput_calls_per_s", "calls/sim_s", true},
	{"model_err_pct", "%", true},
}

// perLayer are the metrics of a traced run (-trace 1).
var perLayer = func() []metricSpec {
	var m []metricSpec
	for _, l := range append(append([]string(nil), layers...), "go_runtime", "other") {
		m = append(m, metricSpec{l + ".host_share", "share", false})
	}
	m = append(m,
		metricSpec{"mbus.arbitrate_share", "share", false},
		metricSpec{"mbus.load", "fraction", true},
		metricSpec{"mbus.wait_per_op", "cycles/op", true},
		metricSpec{"mbus.ops", "count", true},
		metricSpec{"cpu.stall_frac", "fraction", true},
		metricSpec{"cpu.instructions", "count", true},
		metricSpec{"core.hit_ratio", "fraction", true},
		metricSpec{"core.snoop_hit_ratio", "fraction", true},
		metricSpec{"core.write_through_shared", "count", true},
		metricSpec{"setup.build_s", "s", false},
		metricSpec{"setup.warmup_s", "s", false},
		metricSpec{"cluster.inject_share", "share", false},
		metricSpec{"cluster.speedup_nproc_v1", "ratio", false},
		metricSpec{"net.seg0_util", "fraction", true},
		metricSpec{"net.collisions", "count", true},
		metricSpec{"net.deferrals", "count", true},
		metricSpec{"net.bridge_forwarded", "count", true},
		metricSpec{"rpc.calls_completed", "count", true},
		metricSpec{"rpc.retransmits", "count", true},
		metricSpec{"rpc.dup_calls", "count", true},
		metricSpec{"rpc.shed", "count", true},
		metricSpec{"rpc.server_util", "fraction", true},
		metricSpec{"traffic.calls_issued", "count", true},
		metricSpec{"traffic.in_flight_end", "count", true},
		metricSpec{"go_runtime.allocs_per_mcycle", "allocs/Mcycle", false},
		metricSpec{"go_runtime.gc_cycles", "count", false},
		metricSpec{"profile.overhead_pct", "%", false},
	)
	return append(m, reportOnly...)
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs the benchmark and prints its result,
// returning the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", workloads[0].name, "workload: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for re-checking claims: %d)", heldOutSeed))
	secs := fs.Int("seconds", 10, "host seconds of measured repetitions")
	traceFlag := fs.Int("trace", 0, "1: CPU-profile the repetitions and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workloads: %s; -seconds >= 1; -trace 0 or 1)\n", workloadNames())
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	res, err := bench(benchConfig{
		w: w, seed: *seed, budget: time.Duration(*secs) * time.Second,
		traced: *traceFlag == 1, sz: fullSizes, workers: runtime.NumCPU(),
	}, out)
	if err != nil {
		out.Flush()
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		out.Flush()
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// benchConfig is one benchmark run.
type benchConfig struct {
	w       workload
	seed    uint64
	budget  time.Duration // host time of measured repetitions
	traced  bool
	sz      sizes
	workers int // cluster workers of the measured repetitions (nproc)
}

// metric is one JSON metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs the configured workload: repetitions for the budget (under
// the CPU profile when traced), extra set-ups, and the independent
// repetitions the correctness gate compares against. It writes the
// "#" report lines to out and returns the result; an error means the
// benchmark itself could not run.
func bench(cfg benchConfig, out io.Writer) (result, error) {
	tr := newTracer()
	writeHostMeta(out, cfg)

	var prof bytes.Buffer
	var before, after runtime.MemStats
	if cfg.traced {
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	reps := repeat(cfg, cfg.workers, cfg.budget, tr)
	if cfg.traced {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&after)
	}

	var builds, warms, setups []float64
	var cycles uint64
	for _, r := range reps {
		builds = append(builds, r.build.Seconds())
		warms = append(warms, r.warm.Seconds())
		setups = append(setups, r.setup().Seconds())
		cycles += r.cycles
	}
	rates := samples(reps)
	for len(setups) < minSetups {
		r := fresh(cfg.w, cfg.seed, cfg.workers, cfg.sz, tr, true)
		builds = append(builds, r.build.Seconds())
		warms = append(warms, r.warm.Seconds())
		setups = append(setups, r.setup().Seconds())
	}

	// The correctness gate: every check of every repetition, the same
	// statistics hash across repetitions, and on a cluster the same hash
	// from serial (workers=1) runs computed independently. A traced run
	// also repeats the workload unprofiled, for the profile's overhead,
	// and times its serial runs for the worker speed-up; those side runs
	// take a tenth of the budget each, an untraced run's serial check
	// one repetition.
	g := gate{}
	g.check(reps, reps[0].digest, cfg.w.name+" repetition against the first")
	side := time.Duration(0)
	if cfg.traced {
		side = cfg.budget / 10
	}
	var serial, plain []rep
	if cfg.w.fleet {
		serial = repeat(cfg, 1, side, tr)
		g.check(serial, reps[0].digest, fmt.Sprintf("%s workers=1 against workers=%d", cfg.w.name, cfg.workers))
	}
	if cfg.traced {
		plain = repeat(cfg, cfg.workers, side, tr)
		g.check(plain, reps[0].digest, cfg.w.name+" untraced against traced")
	}
	for _, err := range g.errs {
		fmt.Fprintf(out, "# FAIL %v\n", err)
	}

	sim := reps[0].sim
	sim["fail_frac"] = ratio(g.failed, g.attempted)
	fmt.Fprintf(out, "# reps %d digest %016x attempted %d failed %d\n", len(reps), reps[0].digest, g.attempted, g.failed)
	fmt.Fprintf(out, "# throughput samples, Mcycles/s:")
	for _, r := range rates {
		fmt.Fprintf(out, " %.4g", r)
	}
	fmt.Fprintln(out)
	values := map[string]float64{}
	if !cfg.traced {
		values["sim_mcycles_per_s"] = median(rates)
		values["setup_s"] = median(setups)
		values["max_rss_mb"] = maxRSSMB()
		values["sim_tpi"] = sim["sim_tpi"]
		for _, m := range endToEnd {
			fmt.Fprintf(out, "# metric %s %s %s (%s)\n", m.name, fmtValue(values[m.name]), m.unit, kind(m))
		}
		for _, m := range reportOnly {
			v := sim[m.name]
			s := fmtValue(v)
			if v == 0 && m.name != "fail_frac" {
				s = "n/a"
			}
			fmt.Fprintf(out, "# metric %s %s %s (%s)\n", m.name, s, m.unit, kind(m))
		}
		return finish(g, endToEnd, values)
	}

	p, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	for _, m := range perLayer {
		// Host metrics are set below; a simulated metric of a layer the
		// workload does not use reads 0. fail_frac comes from the gate.
		values[m.name] = sim[m.name]
	}
	for l, s := range p.layerShares() {
		values[l+".host_share"] = s
	}
	values["mbus.arbitrate_share"] = p.share(func(fn string) bool {
		return strings.HasPrefix(fn, modulePrefix+"mbus.") && strings.Contains(fn, "arbitrate")
	})
	values["cluster.inject_share"] = p.share(func(fn string) bool {
		return strings.HasPrefix(fn, modulePrefix+"cluster.") && strings.Contains(fn, "injectSends")
	})
	values["setup.build_s"] = median(builds)
	values["setup.warmup_s"] = median(warms)
	if cfg.w.fleet {
		values["cluster.speedup_nproc_v1"] = median(samples(plain)) / median(samples(serial))
	}
	if mc := float64(cycles) / 1e6; mc > 0 {
		values["go_runtime.allocs_per_mcycle"] = float64(after.Mallocs-before.Mallocs) / mc
	}
	values["go_runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	values["profile.overhead_pct"] = 100 * (median(samples(plain))/median(rates) - 1)

	fmt.Fprintf(out, "# profile: %d samples; top functions by flat share\n", p.total)
	for _, row := range p.top(15) {
		fmt.Fprintf(out, "#   %6.2f%%  %s\n", 100*row.share, row.name)
	}
	fmt.Fprintln(out, "# spans: self time by name and phase")
	for _, s := range tr.selfTimes() {
		fmt.Fprintf(out, "#   %-16s %-8s n=%-4d self %.4fs\n", s.name, s.phase, s.count, s.self.Seconds())
	}
	for _, m := range perLayer {
		fmt.Fprintf(out, "# metric %s %s %s (%s)\n", m.name, fmtValue(values[m.name]), m.unit, kind(m))
	}
	return finish(g, perLayer, values)
}

// repeat runs repetitions at the given worker count until d has passed,
// and at least one.
func repeat(cfg benchConfig, workers int, d time.Duration, tr *tracer) []rep {
	var reps []rep
	for start := time.Now(); len(reps) == 0 || time.Since(start) < d; {
		reps = append(reps, fresh(cfg.w, cfg.seed, workers, cfg.sz, tr, false))
	}
	return reps
}

// samples returns the throughputs (Mcycles/s) the median is taken
// over: each repetition's, or each of its slices where it has them.
func samples(reps []rep) []float64 {
	var out []float64
	for _, r := range reps {
		if len(r.slices) > 0 {
			out = append(out, r.slices...)
		} else {
			out = append(out, throughput(r))
		}
	}
	return out
}

// fresh collects the previous repetition's garbage, untimed, and runs
// a repetition, so that no repetition pays for another's heap.
func fresh(w workload, seed uint64, workers int, sz sizes, tr *tracer, setupOnly bool) rep {
	runtime.GC()
	return w.run(seed, workers, sz, tr, setupOnly)
}

// gate accumulates operations and correctness failures.
type gate struct {
	attempted, failed uint64
	errs              []error
}

// check adds repetitions: their operations, their own check failures,
// and a failure, with all their operations failed, where a statistics
// hash differs from want.
func (g *gate) check(reps []rep, want uint64, what string) {
	for _, r := range reps {
		g.attempted += r.attempted
		g.failed += r.failed
		if r.err != nil {
			g.errs = append(g.errs, r.err)
		}
		if err := checkDigest(what, want, r.digest); err != nil {
			g.errs = append(g.errs, err)
			g.failed += r.attempted - r.failed
		}
	}
}

// finish assembles the result for the declared metrics.
func finish(g gate, specs []metricSpec, values map[string]float64) (result, error) {
	res := result{
		Correct:   len(g.errs) == 0 && g.failed == 0 && g.attempted > 0,
		Attempted: g.attempted,
		Failed:    g.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s has no finite value", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// throughput is a repetition's simulated machine-cycles per host second
// of its measured phase, in millions.
func throughput(r rep) float64 {
	if r.measure <= 0 {
		return 0
	}
	return float64(r.cycles) / r.measure.Seconds() / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func kind(m metricSpec) string {
	if m.sim {
		return "sim"
	}
	return "host"
}

func fmtValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// maxRSSMB is the process's peak resident set so far (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// writeHostMeta records what the numbers were measured on.
func writeHostMeta(out io.Writer, cfg benchConfig) {
	meta := map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    cfg.workers,
		"workload":   cfg.w.name,
		"seed":       cfg.seed,
		"traced":     cfg.traced,
		"budget_s":   cfg.budget.Seconds(),
	}
	b, _ := json.Marshal(meta) // a map of strings, numbers and booleans always marshals
	fmt.Fprintf(out, "# host %s\n", b)
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// tracer records spans around the benchmark's calls into the
// simulator: name, phase, parent, start and end, kept in memory.
type tracer struct {
	origin time.Time
	spans  []span
	open   int // innermost open span, -1 for none
}

type span struct {
	name, phase string
	parent      int
	start, end  time.Duration
}

func newTracer() *tracer { return &tracer{origin: time.Now(), open: -1} }

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(name, phase string, f func()) time.Duration {
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, phase: phase, parent: t.open, start: time.Since(t.origin)})
	prev := t.open
	t.open = id
	f()
	t.open = prev
	t.spans[id].end = time.Since(t.origin)
	return t.spans[id].end - t.spans[id].start
}

// spanTotal is the summed self time of the spans sharing a name and phase.
type spanTotal struct {
	name, phase string
	count       int
	self        time.Duration
}

// selfTimes returns each (name, phase)'s self time: span durations
// minus the time their child spans cover.
func (t *tracer) selfTimes() []spanTotal {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	idx := map[[2]string]int{}
	var out []spanTotal
	for i, s := range t.spans {
		k := [2]string{s.name, s.phase}
		j, ok := idx[k]
		if !ok {
			j = len(out)
			idx[k] = j
			out = append(out, spanTotal{name: s.name, phase: s.phase})
		}
		out[j].count++
		out[j].self += self[i]
	}
	return out
}
