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

// TestUnknownDispatchPolicyExits2 checks that a bad policysweep axis name is
// rejected up front with exit status 2 and the known names, not a
// panic.
func TestUnknownDispatchPolicyExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-experiment", "policysweep", "-sched", "bogus")
	cmd.Env = append(os.Environ(), "FIREFLYSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2\n%s", err, out)
	}
	want := `fireflysim: unknown dispatch policy "bogus" (known: [averse oldest steal])`
	if got := strings.TrimSpace(string(out)); got != want {
		t.Fatalf("output:\n%s\nwant:\n%s", got, want)
	}
}
