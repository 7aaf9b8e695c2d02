package experiments

import "firefly/internal/sim"

// The sweep engine runs the independent points of a parameter sweep —
// one simulated machine per point — on a bounded worker pool
// (sim.ParallelFor). Every sweep-shaped experiment in this package
// (Table1Sim, the protocol bake-off, the line-size and scheduler
// ablations, the parallel make scaling study) submits its points
// through Sweep.
//
// Determinism contract (also documented in DESIGN.md):
//
//   - Every point builds its own machine with a fixed per-point seed, so
//     a point's result depends only on its index, never on scheduling.
//   - Results are collected in submission order: Sweep returns a slice
//     whose i'th element is the result of point i, regardless of which
//     worker ran it or when it finished.
//   - Consequently an experiment's Outcome.Text is byte-identical
//     whether the sweep ran on one worker or on GOMAXPROCS workers.
//
// Machines are not safe for concurrent use; the pool never shares a
// machine between workers — parallelism is strictly across points.

// Sweep runs fn(0), fn(1), ..., fn(n-1) on up to workers goroutines
// (< 2: serially on the calling goroutine) and returns the results in
// submission (index) order. fn must be self-contained per point: it
// builds, runs, and measures its own machine and must not touch state
// shared with other points.
func Sweep[R any](workers, n int, fn func(point int) R) []R {
	if n <= 0 {
		return nil
	}
	results := make([]R, n)
	sim.ParallelFor(workers, n, func(i int) { results[i] = fn(i) })
	return results
}

// SweepItems is Sweep over a slice: it runs fn on every element of items
// concurrently and returns the results in element order.
func SweepItems[T, R any](workers int, items []T, fn func(item T) R) []R {
	return Sweep(workers, len(items), func(i int) R { return fn(items[i]) })
}
