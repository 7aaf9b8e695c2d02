package sim

import (
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(0), fn(1), ..., fn(n-1) on up to workers goroutines
// and returns when every call has finished. With workers < 2 (or n < 2)
// the calls run serially, in index order, on the calling goroutine.
// Indices are handed out from a shared cursor, so a slow call does not
// hold up the rest. fn must only touch state owned by its index: the
// pool gives no ordering between calls, so results are deterministic
// only when each call is.
func ParallelFor(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
}
