package rts

import "fmt"

// Compiled is a region prepared for repeated scheduling: validated once,
// with every task's successors in one flat array (compressed sparse row) and
// its in-degree counted. It is immutable, so any number of runs may share it;
// each run brings its own Scratch.
type Compiled struct {
	name     string
	serialNs float64
	tasks    []compiledTask
	succ     []int32 // task i's successors are succ[tasks[i].succLo:tasks[i].succHi]
}

type compiledTask struct {
	durNs, critNs  float64
	deps           int32 // in-degree
	succLo, succHi int32
}

// Compile validates a region and prepares it for Run.
func Compile(r Region) (*Compiled, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{name: r.Name, serialNs: r.SerialNs, tasks: make([]compiledTask, len(r.Tasks))}
	// Count each task's successors, lay the lists out back to back, then
	// fill them in task order: the order a per-task append would give.
	edges := 0
	for i, t := range r.Tasks {
		c.tasks[i].durNs, c.tasks[i].critNs = t.DurationNs, t.CriticalNs
		c.tasks[i].deps = int32(len(t.Deps))
		for _, d := range t.Deps {
			c.tasks[d].succHi++
		}
		edges += len(t.Deps)
	}
	var lo int32
	for i := range c.tasks {
		n := c.tasks[i].succHi
		c.tasks[i].succLo, c.tasks[i].succHi = lo, lo
		lo += n
	}
	c.succ = make([]int32, edges)
	for i, t := range r.Tasks {
		for _, d := range t.Deps {
			c.succ[c.tasks[d].succHi] = int32(i)
			c.tasks[d].succHi++
		}
	}
	return c, nil
}

// Scratch is the working memory of Run. A zero Scratch is ready to use; it
// grows to the largest region and thread count it has scheduled and is then
// reused without allocating. It must not be shared by concurrent runs.
type Scratch struct {
	state []taskState
	queue []qent // the ready queue's and the thread pool's backing, back to back
	busy  []float64
}

type taskState struct {
	readyAt float64 // latest completion among the task's dependencies
	deps    int32   // dependencies still running
}

// Run schedules the region on opts.Threads simulated threads with every
// duration (serial preamble, task, critical portion) multiplied by scale,
// the same products a scaled copy of the region would carry. The returned
// schedule's ThreadBusyNs is sc's memory, valid until sc's next run; its
// per-task fields are nil.
func (c *Compiled) Run(opts Options, scale float64, sc *Scratch) Schedule {
	var s Schedule
	c.run(opts, scale, sc, &s)
	return s
}

// Simulate runs the region's task graph on opts.Threads simulated threads
// and returns the schedule, per-task placement included (the Fig. 3
// timelines). It panics on an invalid region (regions are produced by the
// application models, so that is a programming error).
func Simulate(region Region, opts Options) Schedule {
	c, err := Compile(region)
	if err != nil {
		panic(err)
	}
	n := len(region.Tasks)
	s := Schedule{
		TaskThread:  make([]int, n),
		TaskStartNs: make([]float64, n),
		TaskEndNs:   make([]float64, n),
	}
	c.run(opts, 1, &Scratch{}, &s)
	return s
}

// run fills s with the schedule, recording each task's placement when s
// carries per-task slices.
func (c *Compiled) run(opts Options, scale float64, sc *Scratch, s *Schedule) {
	if opts.Threads <= 0 {
		panic(fmt.Sprintf("rts: %d threads", opts.Threads))
	}
	n := len(c.tasks)
	record := s.TaskThread != nil
	sc.size(n, opts.Threads)
	s.ThreadBusyNs = sc.busy

	// Serial preamble runs on thread 0 before any task starts.
	serialEnd := c.serialNs * scale
	s.ThreadBusyNs[0] = serialEnd
	s.MakespanNs = serialEnd

	if n == 0 {
		return
	}

	// Ready tasks ordered by (readyAt, ID): creation order for ties, which
	// models a FIFO ready queue. The tasks without dependencies are all
	// ready at serialEnd, so in ID order they are already sorted: a cursor
	// walks them, and only the tasks their dependencies release go through
	// the heap. A task leaves from whichever of the two holds the smaller
	// (readyAt, ID), the order one heap of every ready task would give.
	rq := minQueue(sc.queue[:0:n])
	for i := range c.tasks {
		sc.state[i] = taskState{readyAt: serialEnd, deps: c.tasks[i].deps}
	}
	root := c.nextRoot(0)

	// Thread availability as a min-heap.
	tq := minQueue(sc.queue[n:n:len(sc.queue)])
	for th := 0; th < opts.Threads; th++ {
		at := 0.0
		if th == 0 {
			at = serialEnd
		}
		tq.push(qent{at: at, id: th})
	}

	var dispatchGate float64 // FIFO central queue serialization point
	var critFree float64     // global critical section availability
	for remaining := n; remaining > 0; remaining-- {
		var te qent
		switch {
		case root < n && (len(rq) == 0 || (qent{at: serialEnd, id: root}).before(rq[0])):
			te = qent{at: serialEnd, id: root}
			root = c.nextRoot(root + 1)
		case len(rq) > 0:
			te = rq.pop()
		default:
			panic("rts: deadlock — cyclic dependencies in region " + c.name)
		}
		task := &c.tasks[te.id]
		th := tq[0] // stays at the top until it is given the task's end

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

		dur, crit := task.durNs*scale, task.critNs*scale
		end := start + dur
		if crit > 0 {
			// The critical portion executes exclusively at the end of the
			// task; contention extends the task.
			earliestCrit := start + dur - crit
			critStart := maxf(earliestCrit, critFree)
			s.CriticalWaitNs += critStart - earliestCrit
			end = critStart + crit
			critFree = end
		}

		if record {
			s.TaskThread[te.id] = th.id
			s.TaskStartNs[te.id] = start
			s.TaskEndNs[te.id] = end
		}
		s.ThreadBusyNs[th.id] += end - start
		if end > s.MakespanNs {
			s.MakespanNs = end
		}

		tq.replaceTop(qent{at: end, id: th.id})
		for _, nx := range c.succ[task.succLo:task.succHi] {
			st := &sc.state[nx]
			if st.readyAt < end {
				st.readyAt = end
			}
			st.deps--
			if st.deps == 0 {
				rq.push(qent{at: st.readyAt, id: int(nx)})
			}
		}
	}
}

// nextRoot returns the first task from i on without dependencies, or the
// task count.
func (c *Compiled) nextRoot(i int) int {
	for i < len(c.tasks) && c.tasks[i].deps != 0 {
		i++
	}
	return i
}

// size makes the scratch hold n tasks and threads threads, busy times zeroed.
func (sc *Scratch) size(n, threads int) {
	if cap(sc.state) < n {
		sc.state = make([]taskState, n)
	}
	sc.state = sc.state[:n]
	if cap(sc.queue) < n+threads {
		sc.queue = make([]qent, n+threads)
	}
	sc.queue = sc.queue[:n+threads]
	if cap(sc.busy) < threads {
		sc.busy = make([]float64, threads)
	}
	sc.busy = sc.busy[:threads]
	clear(sc.busy)
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
	if len(h) > 0 {
		h.replaceTop(last)
	}
	return top
}

// replaceTop replaces the smallest entry with e and sifts e down to where it
// belongs: a pop and a push of e in one pass.
func (q minQueue) replaceTop(e qent) {
	i := 0
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if child+1 < len(q) && q[child+1].before(q[child]) {
			child++
		}
		if !q[child].before(e) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = e
}
