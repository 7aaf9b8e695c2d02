package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run this test binary as the tables command:
// with TABLES_RUN_MAIN=1 in its environment the process runs main
// instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("TABLES_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownArbiterExits2 checks that a bad policysweep axis name is
// rejected up front with exit status 2 and the known names, not a
// panic.
func TestUnknownArbiterExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-experiment", "policysweep", "-arb", "bogus")
	cmd.Env = append(os.Environ(), "TABLES_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2\n%s", err, out)
	}
	want := `tables: unknown arbiter "bogus" (known: [fixed rr fcfs])`
	if got := strings.TrimSpace(string(out)); got != want {
		t.Fatalf("output:\n%s\nwant:\n%s", got, want)
	}
}
