package topaz

import (
	"testing"

	"firefly/internal/machine"
)

func newKernel(nproc int, cfg Config) *Kernel {
	m := machine.New(machine.MicroVAXConfig(nproc))
	return NewKernel(m, cfg)
}

func TestForkJoinCompletes(t *testing.T) {
	k := newKernel(2, Config{})
	h := &Handle{}
	k.Fork(Seq(
		Fork{Prog: Seq(Compute{500}), Spec: ThreadSpec{Name: "child"}, Handle: h},
		Compute{200},
		Join{Handle: h},
	), ThreadSpec{Name: "parent"}, nil)
	if !k.RunUntilDone(20_000_000) {
		t.Fatalf("threads did not finish: stats=%+v", k.Stats())
	}
	if h.T == nil || h.T.State() != Done {
		t.Fatal("child handle not completed")
	}
	if k.Stats().Forks != 2 || k.Stats().Exits != 2 {
		t.Fatalf("stats = %+v", k.Stats())
	}
}

func TestJoinAlreadyDoneDoesNotBlock(t *testing.T) {
	k := newKernel(2, Config{})
	h := &Handle{}
	k.Fork(Seq(
		Fork{Prog: Seq(Compute{10}), Handle: h},
		Compute{50_000}, // child certainly exits first
		Join{Handle: h},
		Compute{10},
	), ThreadSpec{Name: "parent"}, nil)
	if !k.RunUntilDone(50_000_000) {
		t.Fatal("join on finished thread hung")
	}
}

func TestMutualExclusion(t *testing.T) {
	k := newKernel(4, Config{Quantum: 300})
	mu := k.NewMutex("cs")
	inCS := 0
	maxCS := 0
	const workers = 6
	for w := 0; w < workers; w++ {
		k.Fork(LoopProgram(10, func(int) []Action {
			return []Action{
				Lock{mu},
				Call{Fn: func() {
					inCS++
					if inCS > maxCS {
						maxCS = inCS
					}
				}},
				Compute{100},
				Call{Fn: func() { inCS-- }},
				Unlock{mu},
				Compute{50},
			}
		}), ThreadSpec{Name: "worker"}, nil)
	}
	if !k.RunUntilDone(80_000_000) {
		t.Fatalf("workers did not finish; stuck=%v", k.Stuck())
	}
	if maxCS != 1 {
		t.Fatalf("mutual exclusion violated: %d threads in CS", maxCS)
	}
	if mu.Acquires != workers*10 {
		t.Fatalf("acquires = %d, want %d", mu.Acquires, workers*10)
	}
	if mu.Contended == 0 {
		t.Fatal("no contention with 6 workers on 4 CPUs")
	}
	if mu.Owner() != nil || mu.QueueLen() != 0 {
		t.Fatal("mutex not clean at exit")
	}
}

func TestCondVarPingPong(t *testing.T) {
	k := newKernel(2, Config{})
	mu := k.NewMutex("state")
	cv := k.NewCond("turn")
	turn := 0 // 0: ping's turn, 1: pong's turn
	var order []int

	mkPlayer := func(me int, rounds int) Program {
		state := 0
		round := 0
		return ProgramFunc(func(*Thread) Action {
			switch state {
			case 0:
				state = 1
				return Lock{mu}
			case 1:
				if turn != me {
					state = 1 // re-check after wait
					return Wait{CV: cv, M: mu}
				}
				order = append(order, me)
				turn = 1 - me
				round++
				state = 2
				return Signal{cv}
			case 2:
				if round >= rounds {
					state = 3
				} else {
					state = 0 // re-lock for the next round
				}
				return Unlock{mu}
			default:
				return Exit{}
			}
		})
	}
	k.Fork(mkPlayer(0, 5), ThreadSpec{Name: "ping"}, nil)
	k.Fork(mkPlayer(1, 5), ThreadSpec{Name: "pong"}, nil)
	if !k.RunUntilDone(100_000_000) {
		t.Fatalf("ping-pong stuck: %v", k.Stuck())
	}
	if len(order) != 10 {
		t.Fatalf("rounds = %d, want 10 (%v)", len(order), order)
	}
	for i, who := range order {
		if who != i%2 {
			t.Fatalf("alternation broken: %v", order)
		}
	}
}

func TestUltrixSpaceSingleThread(t *testing.T) {
	k := newKernel(1, Config{})
	sp := k.NewSpace("ultrix", true)
	k.Fork(Seq(Compute{10}), ThreadSpec{}, sp)
	defer func() {
		if recover() == nil {
			t.Fatal("second thread in Ultrix space did not panic")
		}
	}()
	k.Fork(Seq(Compute{10}), ThreadSpec{}, sp)
}

func TestTopazSpaceManyThreads(t *testing.T) {
	k := newKernel(2, Config{})
	sp := k.NewSpace("topaz", false)
	for i := 0; i < 5; i++ {
		k.Fork(Seq(Compute{100}), ThreadSpec{}, sp)
	}
	if sp.Threads() != 5 {
		t.Fatalf("threads in space = %d", sp.Threads())
	}
	if !k.RunUntilDone(20_000_000) {
		t.Fatal("threads did not finish")
	}
}

func TestUnlockByNonOwnerPanics(t *testing.T) {
	k := newKernel(1, Config{})
	mu := k.NewMutex("m")
	k.Fork(Seq(Unlock{mu}), ThreadSpec{}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("unlock without ownership did not panic")
		}
	}()
	k.RunUntilDone(1_000_000)
}

func TestWaitWithoutMutexPanics(t *testing.T) {
	k := newKernel(1, Config{})
	mu := k.NewMutex("m")
	cv := k.NewCond("c")
	k.Fork(Seq(Wait{CV: cv, M: mu}), ThreadSpec{}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("wait without holding mutex did not panic")
		}
	}()
	k.RunUntilDone(1_000_000)
}

func TestDeadlockDetection(t *testing.T) {
	k := newKernel(2, Config{})
	a := k.NewMutex("a")
	b := k.NewMutex("b")
	k.Fork(Seq(Lock{a}, Compute{5000}, Lock{b}, Unlock{b}, Unlock{a}), ThreadSpec{}, nil)
	k.Fork(Seq(Lock{b}, Compute{5000}, Lock{a}, Unlock{a}, Unlock{b}), ThreadSpec{}, nil)
	if k.RunUntilDone(50_000_000) {
		t.Fatal("classic deadlock completed?!")
	}
	if !k.Stuck() {
		t.Fatal("deadlock not detected as stuck")
	}
}

func TestPreemptionSharesCPU(t *testing.T) {
	// More threads than processors: all must make progress.
	k := newKernel(2, Config{Quantum: 200})
	const n = 6
	for i := 0; i < n; i++ {
		k.Fork(Seq(Compute{20_000}), ThreadSpec{}, nil)
	}
	k.Machine().Run(3_000_000)
	var minInstr uint64 = 1 << 62
	for _, th := range k.Threads() {
		if th.Instructions < minInstr {
			minInstr = th.Instructions
		}
	}
	if minInstr < 1000 {
		t.Fatalf("a thread starved: min instructions %d", minInstr)
	}
	if k.Stats().Preemptions == 0 {
		t.Fatal("no preemptions with 6 threads on 2 CPUs")
	}
}

func TestAffinityReducesMigration(t *testing.T) {
	run := func(dispatch DispatchPolicy) uint64 {
		k := newKernel(4, Config{Quantum: 500, Dispatch: dispatch, Seed: 3})
		for i := 0; i < 8; i++ {
			k.Fork(LoopProgram(40, func(int) []Action {
				return []Action{Compute{400}, Yield{}}
			}), ThreadSpec{}, nil)
		}
		k.RunUntilDone(100_000_000)
		return k.Stats().Migrations
	}
	with := run(MigrationAverse{})
	without := run(OldestFirst{})
	if with >= without {
		t.Fatalf("affinity did not reduce migrations: with=%d without=%d", with, without)
	}
}

func TestLockTrafficIsShared(t *testing.T) {
	// Two CPUs hammering one mutex must produce MShared write-throughs on
	// the lock word (the Table 2 signature).
	k := newKernel(2, Config{})
	mu := k.NewMutex("hot")
	for i := 0; i < 2; i++ {
		k.Fork(LoopProgram(200, func(int) []Action {
			return []Action{Lock{mu}, Compute{30}, Unlock{mu}}
		}), ThreadSpec{}, nil)
	}
	k.RunUntilDone(50_000_000)
	rep := k.Machine().Report()
	total := rep.MeanCPU().MBusWritesShared
	if total == 0 {
		t.Fatal("no MShared write-throughs from lock traffic")
	}
}

func TestIdleKernelCountsIdleInstr(t *testing.T) {
	k := newKernel(2, Config{})
	k.Machine().Run(100_000)
	if k.Stats().IdleInstr == 0 {
		t.Fatal("idle machine recorded no idle instructions")
	}
	if k.Done() {
		t.Fatal("kernel with no threads reports Done")
	}
}

func TestRunUntilDoneBudget(t *testing.T) {
	k := newKernel(1, Config{})
	k.Fork(Seq(Compute{1_000_000}), ThreadSpec{}, nil)
	if k.RunUntilDone(10_000) {
		t.Fatal("impossibly fast completion")
	}
}

func TestBroadcastWakesAll(t *testing.T) {
	k := newKernel(2, Config{})
	mu := k.NewMutex("m")
	cv := k.NewCond("c")
	released := false
	waiter := func() Program {
		state := 0
		return ProgramFunc(func(*Thread) Action {
			switch state {
			case 0:
				state = 1
				return Lock{mu}
			case 1:
				if !released {
					return Wait{CV: cv, M: mu}
				}
				state = 2
				return Unlock{mu}
			default:
				return Exit{}
			}
		})
	}
	for i := 0; i < 3; i++ {
		k.Fork(waiter(), ThreadSpec{}, nil)
	}
	k.Fork(Seq(
		Compute{20_000}, // let the waiters block first
		Lock{mu},
		Call{Fn: func() { released = true }},
		Broadcast{cv},
		Unlock{mu},
	), ThreadSpec{Name: "releaser"}, nil)
	if !k.RunUntilDone(100_000_000) {
		t.Fatalf("broadcast wakeup incomplete; cv queue=%d stuck=%v", cv.QueueLen(), k.Stuck())
	}
	if cv.Broadcasts != 1 {
		t.Fatalf("broadcasts = %d", cv.Broadcasts)
	}
}

func TestSleepBlocksForDuration(t *testing.T) {
	k := newKernel(1, Config{})
	var wokeAt uint64
	k.Fork(Seq(
		Sleep{Cycles: 40_000},
		Call{Fn: func() { wokeAt = uint64(k.Machine().Clock().Now()) }},
	), ThreadSpec{}, nil)
	if !k.RunUntilDone(10_000_000) {
		t.Fatal("sleeper did not finish")
	}
	if wokeAt < 40_000 {
		t.Fatalf("woke at %d, before the 40k-cycle deadline", wokeAt)
	}
	if wokeAt > 90_000 {
		t.Fatalf("woke at %d, far past the deadline", wokeAt)
	}
}

func TestSleepingIsNotStuck(t *testing.T) {
	k := newKernel(1, Config{})
	k.Fork(Seq(Sleep{Cycles: 100_000}, Compute{100}), ThreadSpec{}, nil)
	k.Machine().Run(10_000) // thread is now asleep
	if k.Stuck() {
		t.Fatal("sleeping kernel reported deadlock")
	}
	if !k.RunUntilDone(50_000_000) {
		t.Fatal("sleeper never woke")
	}
}

func TestSleepFreesProcessor(t *testing.T) {
	// While one thread sleeps, another must get the (single) CPU.
	k := newKernel(1, Config{})
	k.Fork(Seq(Sleep{Cycles: 200_000}), ThreadSpec{Name: "sleeper"}, nil)
	worker := k.Fork(Seq(Compute{3000}), ThreadSpec{Name: "worker"}, nil)
	k.Machine().Run(150_000)
	if worker.State() != Done {
		t.Fatal("worker starved by a sleeping thread")
	}
}

func TestSleepZeroPanics(t *testing.T) {
	k := newKernel(1, Config{})
	k.Fork(Seq(Sleep{}), ThreadSpec{}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("zero sleep did not panic")
		}
	}()
	k.RunUntilDone(1_000_000)
}

func TestThreadAccessors(t *testing.T) {
	k := newKernel(1, Config{})
	th := k.Fork(Seq(Compute{10}), ThreadSpec{Name: "x"}, nil)
	if th.ID() != 0 || th.Name() != "x" || th.Space() == nil {
		t.Fatalf("accessors wrong: %+v", th)
	}
	if th.State() != Ready {
		t.Fatalf("state = %v", th.State())
	}
	for _, s := range []ThreadState{Ready, Running, Blocked, Done} {
		if s.String() == "" {
			t.Fatal("missing state name")
		}
	}
}
