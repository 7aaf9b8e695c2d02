package main

import (
	"errors"
	"os"
	"os/exec"
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

// runExpectExit2 runs fireflysim with args, requires exit status 2, and
// returns the combined output.
func runExpectExit2(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FIREFLYSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
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
