package verify

import (
	"sync"
	"testing"

	"firefly/internal/check"
	"firefly/internal/core"
	"firefly/internal/machine"
	"firefly/internal/obs"
)

// TestCrossValidationSoak is the simulator-vs-model soak: the randomized
// stress harness runs every shipped protocol over multiple seeds and
// machine shapes while an observer records each concrete coherence-state
// transition, and every observed transition must be an arc the abstract
// model proves reachable (directly, or as the controller's
// clean-victim-replacement composite). At quiescent points the per-line
// cache-state population must also project onto a reachable abstract
// configuration. Deterministic per seed; run under -race in CI.
func TestCrossValidationSoak(t *testing.T) {
	cases := []struct {
		cpus, lineWords int
		seeds           []uint64
	}{
		{cpus: 4, lineWords: 1, seeds: []uint64{1, 2, 3}},
		{cpus: 6, lineWords: 1, seeds: []uint64{4}},
		{cpus: 3, lineWords: 2, seeds: []uint64{5}},
	}
	for _, name := range ShippedProtocolNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, err := ForProtocol(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range cases {
				for _, seed := range tc.seeds {
					soakOne(t, r, check.StressConfig{
						Protocol:  name,
						CPUs:      tc.cpus,
						LineWords: tc.lineWords,
						Ops:       1500,
						Seed:      seed,
					})
				}
			}
		})
	}
}

func soakOne(t *testing.T, r *Report, cfg check.StressConfig) {
	t.Helper()
	var mu sync.Mutex
	var seen [core.NumStates][core.NumStates]uint64
	observer := obs.ObserverFunc(func(e obs.Event) {
		if e.Kind != obs.KindCacheState {
			return
		}
		mu.Lock()
		seen[e.A][e.B]++
		mu.Unlock()
	})

	pool := map[uint64]bool{}
	for _, a := range cfg.PoolAddrs() {
		pool[uint64(a)] = true
	}
	exact := exactSpaceFor(r, cfg.CPUs)
	projections := 0
	quiescent := func(m *machine.Machine) {
		if exact == nil {
			return
		}
		// Project each pool line's holder states into abstract counts
		// and demand a reachable configuration matches.
		lines := map[uint64][core.NumStates]int{}
		for _, c := range m.Caches() {
			for idx := 0; idx < c.Lines(); idx++ {
				base, ok := c.ResidentLine(idx)
				if !ok || !pool[uint64(base)] {
					continue
				}
				counts := lines[uint64(base)]
				counts[c.LineState(base)]++
				lines[uint64(base)] = counts
			}
		}
		for base, counts := range lines {
			counts[core.Invalid] = cfg.CPUs
			for s := core.State(1); s < core.NumStates; s++ {
				counts[core.Invalid] -= counts[s]
			}
			if !exact.StateProjectionReachable(counts) {
				t.Errorf("%s seed %d: quiescent line %#x population %v not reachable in abstract model",
					cfg.Protocol, cfg.Seed, base, counts)
			}
			projections++
		}
	}

	sched := check.GenSchedule(cfg)
	res, err := check.RunScheduleOpts(cfg, sched, check.RunOpts{
		Observer:  observer,
		OnDrained: quiescent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("%s seed %d: oracle violations %v", cfg.Protocol, cfg.Seed, res.Violations)
	}
	if res.Checked == 0 {
		t.Fatalf("%s seed %d: oracle checked nothing", cfg.Protocol, cfg.Seed)
	}
	if exact != nil && projections == 0 {
		t.Fatalf("%s seed %d: quiescent hook never projected a line — projection check is vacuous", cfg.Protocol, cfg.Seed)
	}

	total := uint64(0)
	for from := core.State(0); from < core.NumStates; from++ {
		for to := core.State(0); to < core.NumStates; to++ {
			n := seen[from][to]
			if n == 0 {
				continue
			}
			total += n
			if !r.TransitionAllowed(from, to) {
				t.Errorf("%s seed %d: simulator performed %s→%s (%d times), unreachable in abstract model",
					cfg.Protocol, cfg.Seed, from, to, n)
			}
		}
	}
	if total == 0 {
		t.Fatalf("%s seed %d: no coherence transitions observed — soak is vacuous", cfg.Protocol, cfg.Seed)
	}
}

// exactSpaceFor picks the enumerated exact space matching the machine's
// CPU count, nil when the report has none (the projection check is then
// skipped).
func exactSpaceFor(r *Report, cpus int) *Space {
	for _, sp := range r.Exact {
		if sp.K == cpus {
			return sp
		}
	}
	return nil
}

// TestCrossValidationDeterministic pins that a soak config observes the
// identical transition multiset across two runs (the harness promises
// determinism; the cross-validation relies on it).
func TestCrossValidationDeterministic(t *testing.T) {
	run := func() [core.NumStates][core.NumStates]uint64 {
		var seen [core.NumStates][core.NumStates]uint64
		cfg := check.StressConfig{Protocol: "dragon", Ops: 800, Seed: 11}
		res, err := check.RunScheduleOpts(cfg, check.GenSchedule(cfg), check.RunOpts{
			Observer: obs.ObserverFunc(func(e obs.Event) {
				if e.Kind == obs.KindCacheState {
					seen[e.A][e.B]++
				}
			}),
		})
		if err != nil || !res.Ok() {
			t.Fatalf("run failed: %v %v", err, res.Violations)
		}
		return seen
	}
	if run() != run() {
		t.Fatal("transition multiset differs between identical runs")
	}
}
