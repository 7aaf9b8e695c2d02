package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestSweepOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 16} {
		got := Sweep(workers, 100, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results, want 100", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	if got := Sweep(4, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("Sweep(0) = %v, want nil", got)
	}
	if got := SweepItems(4, nil, func(s string) string { return s }); got != nil {
		t.Fatalf("SweepItems(nil) = %v, want nil", got)
	}
}

func TestSweepItemsOrdering(t *testing.T) {
	items := []string{"a", "b", "c", "d", "e"}
	got := SweepItems(4, items, func(s string) string { return s + s })
	for i, s := range items {
		if got[i] != s+s {
			t.Fatalf("result[%d] = %q, want %q", i, got[i], s+s)
		}
	}
}

func TestConfigWorkers(t *testing.T) {
	if w := (Config{Workers: 3}).workers(); w != 3 {
		t.Fatalf("Config{Workers: 3}.workers() = %d", w)
	}
	if w := (Config{}).workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Config{}.workers() = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means valid
	}{
		{"defaults", Config{}, ""},
		{"known names", Config{Arbs: []string{"fixed", "fcfs"}, Scheds: []string{"steal"}}, ""},
		{"unknown arbiter", Config{Arbs: []string{"fixed", "bogus"}}, `unknown arbiter "bogus" (known: [fixed rr fcfs])`},
		{"unknown dispatch", Config{Scheds: []string{"lottery"}}, `unknown dispatch policy "lottery" (known: [averse oldest steal])`},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestNoPackageState keeps the package free of mutable package-level
// state: every setting reaches an experiment through its Config, and
// every run simulates from scratch. Only the read-only paper tables and
// blank-identifier assertions may be package-level vars.
func TestNoPackageState(t *testing.T) {
	allowed := map[string]bool{"_": true, "paperOneCPU": true, "paperFiveCPU": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if !allowed[id.Name] {
						t.Errorf("%s: package-level var %s", fset.Position(id.Pos()), id.Name)
					}
				}
			}
		}
	}
}

// TestSweepDeterministic is the sweep engine's central promise: every
// converted experiment produces byte-identical output whether its points
// run on one worker or on a full pool. Both sides simulate from scratch.
// Run with -race this also shakes out data races between concurrently
// built machines.
func TestSweepDeterministic(t *testing.T) {
	experiments := []struct {
		name string
		run  func(Config) Outcome
	}{
		{"Table1Sim", Table1Sim},
		{"ProtocolComparison", ProtocolComparison},
		{"LineSizeAblation", LineSizeAblation},
		{"ParallelMake", ParallelMake},
		{"CVAXSpeedup", CVAXSpeedup},
		{"MigrationAblation", MigrationAblation},
		{"OnChipDataAblation", OnChipDataAblation},
		{"QBusLoad", QBusLoad},
		{"PolicySweep", PolicySweep},
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		// Even on a small runner, oversubscribing exercises the
		// concurrent path and interleaves completion order.
		workers = 4
	}
	for _, ex := range experiments {
		t.Run(ex.name, func(t *testing.T) {
			t.Parallel()
			serial := ex.run(Config{Workers: 1}).Text
			parallel := ex.run(Config{Workers: workers}).Text
			if serial != parallel {
				t.Fatalf("%s: output differs between 1 worker and %d workers\n--- serial ---\n%s\n--- parallel ---\n%s",
					ex.name, workers, serial, parallel)
			}
		})
	}
}
