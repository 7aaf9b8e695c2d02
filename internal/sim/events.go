package sim

import "container/heap"

// event is a callback scheduled at a simulated time. Events at the same
// time fire in the order they were scheduled (FIFO tie-break), which keeps
// the discrete-event model deterministic.
type event struct {
	at  Cycle
	fn  func()
	seq uint64
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// EventQueue is a discrete-event scheduler over simulated time, used by
// the analytic RPC transport model (rpc.Run). The cycle-level machine
// uses a tick loop and the NextEvent contract instead.
type EventQueue struct {
	clock *Clock
	h     eventHeap
	seq   uint64
}

// NewEventQueue returns a queue that advances clock as it drains events.
func NewEventQueue(clock *Clock) *EventQueue {
	return &EventQueue{clock: clock}
}

// Now returns the current simulated time.
func (q *EventQueue) Now() Cycle { return q.clock.Now() }

// At schedules fn at the absolute cycle at. Scheduling in the past panics:
// it is always a simulator bug.
func (q *EventQueue) At(at Cycle, fn func()) {
	if at < q.clock.Now() {
		panic("sim: event scheduled in the past")
	}
	heap.Push(&q.h, &event{at: at, fn: fn, seq: q.seq})
	q.seq++
}

// RunUntil fires, in time order, every event at or before deadline,
// advancing the clock to each event's time and finally to deadline.
// Events scheduled during the run are honored if they fall within the
// deadline. It returns the number of events fired.
func (q *EventQueue) RunUntil(deadline Cycle) int {
	fired := 0
	for len(q.h) > 0 && q.h[0].at <= deadline {
		e := heap.Pop(&q.h).(*event)
		if e.at > q.clock.Now() {
			q.clock.Advance(e.at - q.clock.Now())
		}
		e.fn()
		fired++
	}
	if q.clock.Now() < deadline {
		q.clock.Advance(deadline - q.clock.Now())
	}
	return fired
}
