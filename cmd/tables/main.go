// Command tables regenerates every table and figure of the paper's
// evaluation, plus the repository's ablation experiments.
//
// Usage:
//
//	tables                  # run everything at the quick budget
//	tables -experiment table2 -full
//	tables -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"firefly/internal/experiments"
)

// splitAxis turns a comma-separated flag value into an axis restriction;
// empty means unrestricted.
func splitAxis(v string) []string {
	if v == "" {
		return nil
	}
	return strings.Split(v, ",")
}

func main() {
	experiment := flag.String("experiment", "all", "experiment ID (see -list) or 'all'")
	full := flag.Bool("full", false, "use report-quality run lengths")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	workers := flag.Int("workers", 0, "sweep worker goroutines (0 = one per CPU; output is identical for any value)")
	arb := flag.String("arb", "", "restrict policysweep's arbitration axis (comma-separated: fixed, rr, fcfs)")
	sched := flag.String("sched", "", "restrict policysweep's dispatch axis (comma-separated: averse, oldest, steal)")
	segments := flag.Int("segments", 1, "Ethernet segments for the cluster experiment (2 puts client and server on bridged wires)")
	flag.Parse()

	cfg := experiments.Config{
		Full:     *full,
		Workers:  *workers,
		Segments: *segments,
		Arbs:     splitAxis(*arb),
		Scheds:   splitAxis(*sched),
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("  %-12s %s\n", r.ID, r.Note)
		}
		return
	}

	run := func(r experiments.Runner) {
		start := time.Now()
		out := r.Run(cfg)
		fmt.Println(out)
		fmt.Printf("(%s in %.1fs)\n\n", r.ID, time.Since(start).Seconds())
	}

	if *experiment == "all" {
		for _, r := range experiments.All() {
			run(r)
		}
		return
	}
	r := experiments.ByID(*experiment)
	if r == nil {
		fmt.Fprintf(os.Stderr, "tables: unknown experiment %q (try -list)\n", *experiment)
		os.Exit(2)
	}
	run(*r)
}
