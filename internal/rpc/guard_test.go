package rpc

import "testing"

// TestServerServiceCyclesMatchesDefaults pins the analytic service-time
// helper the traffic engine's queuing model prices nodes with.
func TestServerServiceCyclesMatchesDefaults(t *testing.T) {
	got := Config{}.ServerServiceCycles(1024)
	want := uint64(2500 + 1495*1024/100)
	if got != want {
		t.Fatalf("ServerServiceCycles(1024) = %d, want %d", got, want)
	}
}
