// Package sim implements a small discrete-event simulation kernel and the
// picosecond clock the models share: a time-ordered event queue with stable
// FIFO ordering for simultaneous events. The DRAM controller is driven through
// it whenever a request carries a completion callback.
//
// Times are int64 picoseconds. Picosecond resolution lets the DRAM model
// express exact DDR4-2333 bus cycles (857.6 ps) and the core models express
// sub-nanosecond cycle times without rounding drift across frequencies.
package sim

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common time unit helpers.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromNanos converts floating-point nanoseconds to a Time.
func FromNanos(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// Event is a scheduled callback.
type Event struct {
	when Time
	seq  uint64
	fn   func(now Time)
	idx  int // heap index, -1 once popped or cancelled
}

// When returns the time the event is scheduled for.
func (e *Event) When() Time { return e.when }

// Engine is the event-driven simulation core. The zero value is ready to use.
type Engine struct {
	now    Time
	nextSq uint64
	queue  eventHeap
	// arena is the tail of the current event allocation chunk. Events are
	// carved out of fixed-size chunks instead of allocated one by one: the
	// DRAM and replay models schedule hundreds of thousands of short-lived
	// events per run, and chunking turns that into a handful of
	// allocations. Events are never recycled, so a caller-held *Event stays
	// valid (Cancel on a fired event is still a safe no-op).
	arena []Event
}

// arenaChunk is the number of events carved per allocation chunk.
const arenaChunk = 256

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a model bug, and silently reordering time would corrupt
// every downstream statistic.
func (e *Engine) At(t Time, fn func(now Time)) *Event {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	if len(e.arena) == 0 {
		e.arena = make([]Event, arenaChunk)
	}
	ev := &e.arena[0]
	e.arena = e.arena[1:]
	*ev = Event{when: t, seq: e.nextSq, fn: fn}
	e.nextSq++
	e.queue.push(ev)
	return ev
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func(now Time)) *Event {
	return e.At(e.now+d, fn)
}

// Cancel removes ev from the queue if it has not fired yet and reports
// whether it was cancelled.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.idx < 0 {
		return false
	}
	e.queue.remove(ev.idx)
	return true
}

// Step fires the next event and reports whether one was available.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.when
	ev.fn(e.now)
	return true
}

// Run fires events until the queue is empty and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil fires events with timestamps <= deadline and advances the clock to
// deadline if the queue drains earlier.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].when <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// eventHeap is a binary min-heap over (when, seq), so same-time events fire
// FIFO. It is implemented concretely rather than through container/heap: the
// queue is the hottest structure of the event kernel, and the interface
// indirection (Less/Swap dispatch, any boxing) costs real time there. The
// ordering key is a strict total order — seq is unique per engine — so pop
// order is identical to any other correct heap over the same key.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
}

func (h *eventHeap) push(ev *Event) {
	ev.idx = len(*h)
	*h = append(*h, ev)
	h.up(ev.idx)
}

func (h *eventHeap) pop() *Event {
	q := *h
	ev := q[0]
	n := len(q) - 1
	q.swap(0, n)
	q[n] = nil
	*h = q[:n]
	if n > 0 {
		(*h).down(0)
	}
	ev.idx = -1
	return ev
}

func (h *eventHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	if i != n {
		q.swap(i, n)
	}
	q[n].idx = -1
	q[n] = nil
	*h = q[:n]
	if i < n {
		(*h).down(i)
		(*h).up(i)
	}
}
