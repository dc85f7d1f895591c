package rts

import "fmt"

// Simulate runs the region's task graph on opts.Threads simulated threads
// and returns the schedule. It panics on an invalid region (regions are
// produced by the application models, so that is a programming error).
func Simulate(region Region, opts Options) Schedule {
	if err := region.Validate(); err != nil {
		panic(err)
	}
	if opts.Threads <= 0 {
		panic(fmt.Sprintf("rts: %d threads", opts.Threads))
	}

	n := len(region.Tasks)
	s := Schedule{
		ThreadBusyNs: make([]float64, opts.Threads),
		TaskThread:   make([]int, n),
		TaskStartNs:  make([]float64, n),
		TaskEndNs:    make([]float64, n),
	}

	// Serial preamble runs on thread 0 before any task starts.
	serialEnd := region.SerialNs
	s.ThreadBusyNs[0] = region.SerialNs
	s.MakespanNs = serialEnd

	if n == 0 {
		return s
	}

	// Dependency bookkeeping.
	indeg := make([]int, n)
	succ := make([][]int, n)
	readyAt := make([]float64, n) // max completion time of deps
	for i, t := range region.Tasks {
		indeg[i] = len(t.Deps)
		for _, d := range t.Deps {
			succ[d] = append(succ[d], i)
		}
		readyAt[i] = serialEnd
	}

	// Ready tasks ordered by (readyAt, ID): creation order for ties, which
	// models a FIFO ready queue.
	rq := make(minQueue, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			rq.push(qent{at: readyAt[i], id: i})
		}
	}

	// Thread availability as a min-heap.
	tq := make(minQueue, 0, opts.Threads)
	for th := 0; th < opts.Threads; th++ {
		at := 0.0
		if th == 0 {
			at = serialEnd
		}
		tq.push(qent{at: at, id: th})
	}

	var dispatchGate float64 // FIFO central queue serialization point
	var critFree float64     // global critical section availability
	remaining := n

	for remaining > 0 {
		if len(rq) == 0 {
			panic("rts: deadlock — cyclic dependencies in region " + region.Name)
		}
		te := rq.pop()
		task := &region.Tasks[te.id]
		th := tq.pop()

		start := maxf(te.at, th.at)
		switch opts.Policy {
		case FIFOCentral:
			// One dispatch at a time through the queue lock.
			start = maxf(start, dispatchGate)
			start += opts.DispatchNs
			dispatchGate = start
		case WorkSteal:
			// Dispatch cost paid locally, no global serialization.
			start += opts.DispatchNs
		}
		s.DispatchNs += opts.DispatchNs

		end := start + task.DurationNs
		if task.CriticalNs > 0 {
			// The critical portion executes exclusively at the end of the
			// task; contention extends the task.
			earliestCrit := start + task.DurationNs - task.CriticalNs
			critStart := maxf(earliestCrit, critFree)
			s.CriticalWaitNs += critStart - earliestCrit
			end = critStart + task.CriticalNs
			critFree = end
		}

		s.TaskThread[te.id] = th.id
		s.TaskStartNs[te.id] = start
		s.TaskEndNs[te.id] = end
		s.ThreadBusyNs[th.id] += end - start
		if end > s.MakespanNs {
			s.MakespanNs = end
		}

		tq.push(qent{at: end, id: th.id})
		for _, nx := range succ[te.id] {
			if readyAt[nx] < end {
				readyAt[nx] = end
			}
			indeg[nx]--
			if indeg[nx] == 0 {
				rq.push(qent{at: readyAt[nx], id: nx})
			}
		}
		remaining--
	}
	return s
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// qent is a (time, id) pair for the scheduling heaps.
type qent struct {
	at float64
	id int
}

func (a qent) before(b qent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

// minQueue is a binary min-heap of qent ordered by (at, id), the ready queue
// and the thread pool alike. It is typed — container/heap would box every
// entry it pushes and pops, the bulk of a sweep point's allocations — and
// ids are unique within a queue, so the order is total and the pop sequence
// does not depend on how the heap is laid out.
type minQueue []qent

func (q *minQueue) push(e qent) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

func (q *minQueue) pop() qent {
	h := *q
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	*q = h
	i := 0
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if child+1 < len(h) && h[child+1].before(h[child]) {
			child++
		}
		if !h[child].before(last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if len(h) > 0 {
		h[i] = last
	}
	return top
}
