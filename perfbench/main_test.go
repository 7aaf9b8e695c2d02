package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"firefly/internal/rpc"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has unexpected key %q", k)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCommand checks that every workload and metric
// BENCHMARK.json declares is one the command runs or prints, with the
// same unit, under a well-formed name.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	f := readBenchmarkFile(t)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, command runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		checkName(w.Name)
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, command runs %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics declared, command prints %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		checkName(m.Name)
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit) {
			t.Errorf("end-to-end %d is %s [%s], command prints %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit, direction or bound", m.Name)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics declared, command prints %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		checkName(m.Name)
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per-layer %d is %s [%s], command prints %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer %s: bad unit or direction", m.Name)
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("BENCHMARK.json must declare setup_s in s, lower is better")
	}
}

// TestShortRuns runs a shortened version of every workload, untraced
// and traced, and checks that it is correct, that no operation failed,
// and that every declared metric is printed with its unit.
func TestShortRuns(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := bench(benchConfig{
				w: w, seed: defaultSeed, budget: time.Millisecond, traced: traced,
				sz: shortSizes, workers: runtime.NumCPU(),
			}, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(specs))
			}
			printed := out.String()
			for _, m := range specs {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
				if !strings.Contains(printed, "# metric "+m.name+" ") {
					t.Errorf("%s traced=%v: %s not printed", w.name, traced, m.name)
				}
			}
			if !traced {
				for _, m := range reportOnly {
					if !strings.Contains(printed, "# metric "+m.name+" ") {
						t.Errorf("%s: %s not printed", w.name, m.name)
					}
				}
				if v := res.Metrics["sim_tpi"].Value; v < 11.9 {
					t.Errorf("%s: sim_tpi %v below the MicroVAX base", w.name, v)
				}
			}
			if traced {
				sum := 0.0
				for _, l := range append(append([]string(nil), layers...), "go_runtime", "other") {
					sum += res.Metrics[l+".host_share"].Value
				}
				if sum != 0 && (sum < 0.999 || sum > 1.001) {
					t.Errorf("%s: host shares sum to %v", w.name, sum)
				}
			}
		}
	}
}

// corrupting wraps a workload so that selected repetitions report a
// wrong statistics hash.
func corrupting(w workload, bad func(call, workers int) bool) workload {
	calls := 0
	inner := w.run
	w.run = func(seed uint64, workers int, sz sizes, tr *tracer, setupOnly bool) rep {
		r := inner(seed, workers, sz, tr, setupOnly)
		if !setupOnly {
			if bad(calls, workers) {
				r.digest ^= 1
			}
			calls++
		}
		return r
	}
	return w
}

// TestGateFailsOnCorruptHash shows each hash comparison can fail: a
// repetition that disagrees with the first, a serial run that disagrees
// with the parallel one, and an untraced run that disagrees with the
// traced ones.
func TestGateFailsOnCorruptHash(t *testing.T) {
	t1, _ := workloadByName("table1-cold")
	fleet, _ := workloadByName("fleet-idle")
	// A 1 ms budget runs exactly one measured repetition of a real
	// workload, so only the check under test sees the corrupt hash. The
	// repetition check needs several, which a stand-in workload that
	// simulates nothing runs in any budget.
	stub := workload{name: "stub", run: func(uint64, int, sizes, *tracer, bool) rep {
		return rep{attempted: 1, digest: 7, cycles: 1, measure: time.Microsecond, sim: map[string]float64{}}
	}}
	cases := []struct {
		name   string
		w      workload
		budget time.Duration
		traced bool
	}{
		{"repetition", corrupting(stub, func(call, _ int) bool { return call == 1 }), 10 * time.Millisecond, false},
		{"workers", corrupting(fleet, func(_, workers int) bool { return workers == 1 }), time.Millisecond, false},
		{"traced", corrupting(t1, func(call, _ int) bool { return call == 1 }), time.Millisecond, true},
	}
	for _, c := range cases {
		var out bytes.Buffer
		res, err := bench(benchConfig{
			w: c.w, seed: defaultSeed, budget: c.budget, traced: c.traced,
			sz: shortSizes, workers: 2,
		}, &out)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Correct || res.Failed == 0 || !strings.Contains(out.String(), "# FAIL") {
			t.Errorf("%s: corrupt hash passed the gate: correct=%v failed=%d\n%s", c.name, res.Correct, res.Failed, out.String())
		}
	}
}

// TestChecksFail feeds each correctness check a bad input.
func TestChecksFail(t *testing.T) {
	good := []t1Point{
		{np: 2, load: 0.18, tpi: 13.3, tp: 1.79, modelTP: 1.77, instrs: 1},
		{np: 6, load: 0.5, tpi: 14.1, tp: 5.08, modelTP: 4.93, instrs: 1},
		{np: 10, load: 0.8, tpi: 15.5, tp: 7.70, modelTP: 7.29, instrs: 1},
	}
	if err := checkTable1(good); err != nil {
		t.Fatalf("good grid rejected: %v", err)
	}
	for name, mutate := range map[string]func(p []t1Point){
		"missing point":  func(p []t1Point) {},
		"no work":        func(p []t1Point) { p[1].instrs = 0 },
		"load range":     func(p []t1Point) { p[2].load = 1 },
		"load falls":     func(p []t1Point) { p[1].load = 0.1 },
		"tpi below base": func(p []t1Point) { p[0].tpi = 10 },
		"far from model": func(p []t1Point) { p[2].tp = 9 },
	} {
		p := append([]t1Point(nil), good...)
		mutate(p)
		if name == "missing point" {
			p = p[:2]
		}
		if checkTable1(p) == nil {
			t.Errorf("checkTable1 accepted %s", name)
		}
	}

	ok := callAccount{issued: 10, completed: 7, shed: 1, failed: 1, inFlight: 1}
	if err := checkTraffic(ok, 7); err != nil {
		t.Fatalf("balanced account rejected: %v", err)
	}
	lost := ok
	lost.inFlight = 0
	if checkTraffic(lost, 7) == nil {
		t.Error("checkTraffic accepted a lost call")
	}
	if checkTraffic(ok, 8) == nil {
		t.Error("checkTraffic accepted too few completed calls")
	}

	var st rpc.NodeStats
	st.CallsIssued.Add(10)
	st.CallsCompleted.Add(6)
	if checkCallerConservation(1, st, 3) == nil {
		t.Error("checkCallerConservation accepted 4 calls held by 3 threads")
	}
	st.CallsFailed.Add(1)
	if err := checkCallerConservation(1, st, 3); err != nil {
		t.Errorf("balanced caller rejected: %v", err)
	}
	if checkDigest("x", 1, 2) == nil {
		t.Error("checkDigest accepted different hashes")
	}
}

// TestRunRejectsBadArguments checks that bad arguments exit non-zero
// without printing a result.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--seconds", "0"},
		{"--trace", "2"},
		{"--seed", "x"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestProfileAttribution profiles a busy loop and checks that the
// decoder finds samples and that the buckets sum to one.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	if x == 0 {
		t.Log("unreachable")
	}
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Fatal("no samples decoded")
	}
	sum := 0.0
	for _, s := range p.layerShares() {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"firefly/internal/mbus.(*Bus).arbitrate":          "mbus",
		"firefly/internal/cluster.(*Cluster).round.func1": "cluster",
		"firefly/internal/memory.(*System).Read":          "other",
		"runtime.mallocgc":                                "go_runtime",
		"internal/runtime/maps.(*Map).getWithKey":         "go_runtime",
		"container/heap.Pop":                              "other",
		"main.table1Cold":                                 "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
