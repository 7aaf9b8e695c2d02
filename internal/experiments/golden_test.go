package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFixedPriorityGolden is the policy-layer refactor's bit-for-bit
// guarantee: with the default policies (fixed-priority arbitration,
// migration-averse or oldest-first dispatch), every sweep experiment's
// Quick output must match the fixtures captured from the pre-refactor
// tree byte for byte. A
// diff here means the Arbiter/DispatchPolicy plumbing changed simulated
// behaviour, not just its packaging.
func TestFixedPriorityGolden(t *testing.T) {
	cases := []struct {
		fixture string
		run     func(Config) Outcome
	}{
		{"table1sim", Table1Sim},
		{"protocols", ProtocolComparison},
		{"migration", MigrationAblation},
		{"cvax", CVAXSpeedup},
		{"qbus", QBusLoad},
		{"make", ParallelMake},
		{"linesize", LineSizeAblation},
		{"onchipdata", OnChipDataAblation},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.fixture+".txt"))
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			got := tc.run(Config{}).Text
			if got != string(want) {
				t.Fatalf("%s output diverged from pre-policy-layer fixture\n--- got ---\n%s\n--- want ---\n%s",
					tc.fixture, got, want)
			}
		})
	}
}
