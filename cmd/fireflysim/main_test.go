package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets a test run this test binary as the fireflysim command:
// with FIREFLYSIM_RUN_MAIN=1 in its environment the process runs main
// instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("FIREFLYSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fireflysim returns a command that runs this test binary as fireflysim
// with args.
func fireflysim(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FIREFLYSIM_RUN_MAIN=1")
	return cmd
}

// runExpectExit2 runs fireflysim with args, requires exit status 2, and
// returns the combined output.
func runExpectExit2(t *testing.T, args ...string) string {
	t.Helper()
	out, err := fireflysim(args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("%v: exit: %v, want status 2\n%s", args, err, out)
	}
	return strings.TrimSpace(string(out))
}

// TestUnknownDispatchPolicyExits2 checks that a bad policysweep axis name is
// rejected up front with exit status 2 and the known names, not a
// panic.
func TestUnknownDispatchPolicyExits2(t *testing.T) {
	got := runExpectExit2(t, "-experiment", "policysweep", "-sched", "bogus")
	want := `fireflysim: unknown dispatch policy "bogus" (known: [averse oldest steal])`
	if got != want {
		t.Fatalf("output:\n%s\nwant:\n%s", got, want)
	}
}

// TestBadFlagsExit2 checks that bad durations and machine or load
// parameters are rejected with one line and exit status 2. A Go panic
// also exits 2, so the output must carry no stack trace either.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-seconds", "-1"}, "fireflysim: -seconds -1: need a finite, non-negative duration"},
		{[]string{"-seconds", "NaN"}, "fireflysim: -seconds NaN: need a finite, non-negative duration"},
		{[]string{"-seconds", "Inf"}, "fireflysim: -seconds +Inf: need a finite, non-negative duration"},
		{[]string{"-warmup", "-1"}, "fireflysim: -warmup -1: need a finite, non-negative duration"},
		{[]string{"-cluster", "2", "-seconds", "-1"}, "fireflysim: -seconds -1: need a finite, non-negative duration"},
		{[]string{"-cpus", "0"}, "fireflysim: machine: need at least one processor, got 0"},
		{[]string{"-cpus", "100"}, "fireflysim: machine: 100 processors is beyond any plausible MBus"},
		{[]string{"-linewords", "3"}, "fireflysim: machine: line words must be a power of two, got 3"},
		{[]string{"-cachelines", "3"}, "fireflysim: machine: cache lines must be a power of two, got 3"},
		{[]string{"-cachelines", "-4"}, "fireflysim: machine: cache lines must be a power of two, got -4"},
		{[]string{"-miss", "2"}, "fireflysim: trace: miss rate 2 out of [0,1]"},
		{[]string{"-share", "-1"}, "fireflysim: trace: share fraction -1 out of [0,1]"},
		{[]string{"-cluster", "-3"}, "fireflysim: -cluster -3: a cluster needs at least 2 machines"},
		{[]string{"-cluster", "4", "-workers", "-3"}, "fireflysim: -workers -3: need 0 (one per CPU) or a positive count"},
		{[]string{"-cluster", "4", "-traffic", "bogus"}, `fireflysim: traffic: "bogus" is not key=value`},
		{[]string{"-cluster", "4", "-traffic", "rate=-1"}, "fireflysim: traffic: rate -1 out of range (need 0 < rate <= 1e9)"},
		{[]string{"-cluster", "4", "-faults", "nonsense"}, `fireflysim: fault: "nonsense" is not key=value`},
		{[]string{"-cluster", "4", "-faults", "drop=2"}, "fireflysim: fault: net frame-drop rate 2 outside [0,1]"},
		{[]string{"-cluster", "4", "-segments", "0"}, "fireflysim: -segments 0: need between 1 and 4 segments"},
		{[]string{"-cluster", "4", "-segments", "9"}, "fireflysim: -segments 9: need between 1 and 4 segments"},
		{[]string{"-cluster", "4", "-callers", "0"}, "fireflysim: -callers 0: need at least 1 caller thread"},
		{[]string{"-warmup", "0.0029", "-travel", "28999"}, "fireflysim: -travel 28999 is before the end of warmup at cycle 29000"},
		{[]string{"-workload", "exerciser", "-travel", "5"}, `fireflysim: -travel only supports the synthetic workload (got "exerciser")`},
		{[]string{"-check", "-travel", "30000"}, "fireflysim: -travel cannot be combined with -check"},
		{[]string{"-travel", "100"}, "fireflysim: -travel 100 is before the end of warmup at cycle 20000"},
	} {
		got := runExpectExit2(t, tc.args...)
		if strings.Contains(got, "panic:") || strings.Contains(got, "goroutine ") {
			t.Fatalf("%v: panicked:\n%s", tc.args, got)
		}
		if got != tc.want {
			t.Fatalf("%v: output:\n%s\nwant:\n%s", tc.args, got, tc.want)
		}
	}
}

// TestTravelMatchesDirectRun checks time travel against an independent
// process: everything printed after the time-travel line for -travel K
// must equal, byte for byte, the whole output of a run with the same
// flags measuring K minus the warmup cycles.
func TestTravelMatchesDirectRun(t *testing.T) {
	for _, tc := range []struct {
		flags  []string
		warmup uint64 // cycles, matching -warmup in flags
		travel uint64
	}{
		{[]string{"-cpus", "3", "-seconds", "0.005"}, 20_000, 30_000},
		{[]string{"-cpus", "4", "-protocol", "dragon", "-arb", "fcfs", "-faults", "bus=1e-3,mem=1e-3",
			"-warmup", "0.001", "-seconds", "0.004"}, 10_000, 25_000},
	} {
		out, err := fireflysim(append(tc.flags, "-travel", strconv.FormatUint(tc.travel, 10))...).Output()
		if err != nil {
			t.Fatalf("%v -travel %d: %v", tc.flags, tc.travel, err)
		}
		marker := fmt.Sprintf("\ntime-travel: restored to cycle %d, replayed to cycle %d\n", tc.warmup, tc.travel)
		_, traveled, ok := strings.Cut(string(out), marker)
		if !ok {
			t.Fatalf("%v -travel %d: no %q line in\n%s", tc.flags, tc.travel, strings.TrimSpace(marker), out)
		}
		seconds := strconv.FormatFloat(float64(tc.travel-tc.warmup)/1e7, 'g', -1, 64)
		direct, err := fireflysim(append(tc.flags, "-seconds", seconds)...).Output()
		if err != nil {
			t.Fatalf("%v -seconds %s: %v", tc.flags, seconds, err)
		}
		if traveled != string(direct) {
			t.Errorf("%v: -travel %d report differs from a direct -seconds %s run\n--- travel ---\n%s--- direct ---\n%s",
				tc.flags, tc.travel, seconds, traveled, direct)
		}
	}
}
