// Package rts simulates the node-level runtime system (the OmpSs/OpenMP
// layer of MUSA): task graphs with dependencies, critical sections, and the task schedulers that place task instances on
// simulated cores. Burst-mode simulation (paper §V-A) replays a region's
// task graph over N threads with durations taken from the trace; detailed
// mode rescales durations with the core model's results first.
//
// Runtime events (task dispatch) keep their wall-clock cost from the trace
// — they do not shrink with core frequency — which reproduces the paper's
// HYDRO scheduling bottleneck above 2.5 GHz (Fig. 9a).
package rts

import "fmt"

// Task is one runtime task instance.
type Task struct {
	ID         int
	DurationNs float64
	CriticalNs float64 // portion executed inside a global critical section
	Deps       []int   // IDs of tasks that must complete first
}

// Region is one compute region of an application: an optional serial
// preamble followed by a task graph.
type Region struct {
	Name     string
	SerialNs float64 // non-taskified work executed by the master thread
	Tasks    []Task
}

// Validate reports structural errors (bad IDs, forward deps out of range).
func (r Region) Validate() error {
	n := len(r.Tasks)
	for i, t := range r.Tasks {
		if t.ID != i {
			return fmt.Errorf("rts: region %s task %d has ID %d (IDs must be dense)", r.Name, i, t.ID)
		}
		if t.DurationNs < 0 || t.CriticalNs < 0 || t.CriticalNs > t.DurationNs {
			return fmt.Errorf("rts: region %s task %d has bad durations", r.Name, i)
		}
		for _, d := range t.Deps {
			if d < 0 || d >= n || d == i {
				return fmt.Errorf("rts: region %s task %d has bad dep %d", r.Name, i, d)
			}
		}
	}
	return nil
}

// Schedule is the outcome of simulating one region on a thread pool.
type Schedule struct {
	MakespanNs     float64
	ThreadBusyNs   []float64 // per-thread busy time (including serial work on thread 0)
	TaskThread     []int     // executing thread per task
	TaskStartNs    []float64
	TaskEndNs      []float64
	DispatchNs     float64 // total dispatch overhead charged
	CriticalWaitNs float64
}

// AvgActiveThreads returns the time-averaged number of busy threads.
func (s Schedule) AvgActiveThreads() float64 {
	if s.MakespanNs <= 0 {
		return 0
	}
	var busy float64
	for _, b := range s.ThreadBusyNs {
		busy += b
	}
	return busy / s.MakespanNs
}

// Options configures a scheduling simulation.
type Options struct {
	Threads int
	// DispatchNs is the runtime cost to hand one task to a thread. Under
	// the FIFO policy it also serializes globally (central ready queue).
	DispatchNs float64
	// Policy selects the scheduler implementation.
	Policy Policy
}

// Policy selects the task scheduler.
type Policy int

const (
	// FIFOCentral models the Nanos++ central ready queue: one task handed
	// out at a time, dispatch serialized through the queue lock.
	FIFOCentral Policy = iota
	// WorkSteal models per-thread deques with stealing: dispatch cost is
	// paid per task but does not serialize across threads.
	WorkSteal
)

func (p Policy) String() string {
	if p == WorkSteal {
		return "worksteal"
	}
	return "fifo"
}
