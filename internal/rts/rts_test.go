package rts

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func flat(n int, durNs float64) Region {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{ID: i, DurationNs: durNs}
	}
	return Region{Name: "flat", Tasks: tasks}
}

// skewed is flat with every duration scaled by a mean-one log-normal factor
// of the given coefficient of variation.
func skewed(n int, durNs, cv float64, seed uint64) Region {
	rng := rand.New(rand.NewSource(int64(seed)))
	r := flat(n, durNs)
	sigma2 := math.Log1p(cv * cv)
	for i := range r.Tasks {
		r.Tasks[i].DurationNs *= math.Exp(-sigma2/2 + math.Sqrt(sigma2)*rng.NormFloat64())
	}
	return r
}

func TestValidate(t *testing.T) {
	ok := flat(4, 10)
	if err := ok.Validate(); err != nil {
		t.Error(err)
	}
	bad := Region{Tasks: []Task{{ID: 1}}}
	if bad.Validate() == nil {
		t.Error("non-dense IDs validated")
	}
	bad2 := Region{Tasks: []Task{{ID: 0, Deps: []int{5}}}}
	if bad2.Validate() == nil {
		t.Error("out-of-range dep validated")
	}
	bad3 := Region{Tasks: []Task{{ID: 0, DurationNs: 5, CriticalNs: 10}}}
	if bad3.Validate() == nil {
		t.Error("critical > duration validated")
	}
}

func TestPerfectScaling(t *testing.T) {
	// 64 equal tasks on 1 vs 64 threads with no overheads: speedup 64.
	r := flat(64, 1000)
	s1 := Simulate(r, Options{Threads: 1})
	s64 := Simulate(r, Options{Threads: 64})
	if s1.MakespanNs != 64000 {
		t.Errorf("serial makespan = %v", s1.MakespanNs)
	}
	if s64.MakespanNs != 1000 {
		t.Errorf("parallel makespan = %v", s64.MakespanNs)
	}
	if pe := s64.ParallelEfficiency(); math.Abs(pe-1) > 1e-9 {
		t.Errorf("efficiency = %v", pe)
	}
}

func TestTaskShortageLimitsScaling(t *testing.T) {
	// 96 tasks on 64 threads: two waves, efficiency 96/128 = 0.75 (the
	// SP-MZ/Specfem3D mechanism in Fig. 2a).
	r := flat(96, 1000)
	s := Simulate(r, Options{Threads: 64})
	if s.MakespanNs != 2000 {
		t.Errorf("makespan = %v, want 2000 (two waves)", s.MakespanNs)
	}
	if pe := s.ParallelEfficiency(); math.Abs(pe-0.75) > 1e-9 {
		t.Errorf("efficiency = %v, want 0.75", pe)
	}
}

func TestSerialFractionAmdahl(t *testing.T) {
	r := flat(64, 1000)
	r.SerialNs = 16000 // 20% serial of 80k total
	s := Simulate(r, Options{Threads: 64})
	want := 16000.0 + 1000.0
	if s.MakespanNs != want {
		t.Errorf("makespan = %v, want %v", s.MakespanNs, want)
	}
	if s.ThreadBusyNs[0] < 16000 {
		t.Error("serial work not on thread 0")
	}
}

func TestDependencyChain(t *testing.T) {
	tasks := []Task{
		{ID: 0, DurationNs: 10},
		{ID: 1, DurationNs: 10, Deps: []int{0}},
		{ID: 2, DurationNs: 10, Deps: []int{1}},
	}
	s := Simulate(Region{Name: "chain", Tasks: tasks}, Options{Threads: 4})
	if s.MakespanNs != 30 {
		t.Errorf("chain makespan = %v, want 30", s.MakespanNs)
	}
	for i := 1; i < 3; i++ {
		if s.TaskStartNs[i] < s.TaskEndNs[i-1] {
			t.Errorf("task %d started before dep finished", i)
		}
	}
}

func TestDiamondDependencies(t *testing.T) {
	tasks := []Task{
		{ID: 0, DurationNs: 10},
		{ID: 1, DurationNs: 20, Deps: []int{0}},
		{ID: 2, DurationNs: 30, Deps: []int{0}},
		{ID: 3, DurationNs: 10, Deps: []int{1, 2}},
	}
	s := Simulate(Region{Name: "diamond", Tasks: tasks}, Options{Threads: 4})
	if s.MakespanNs != 50 { // 10 + max(20,30) + 10
		t.Errorf("diamond makespan = %v, want 50", s.MakespanNs)
	}
}

func TestDeadlockPanics(t *testing.T) {
	tasks := []Task{
		{ID: 0, DurationNs: 10, Deps: []int{1}},
		{ID: 1, DurationNs: 10, Deps: []int{0}},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cycle did not panic")
		}
	}()
	Simulate(Region{Name: "cycle", Tasks: tasks}, Options{Threads: 2})
}

func TestDispatchSerializationBottleneck(t *testing.T) {
	// Tiny tasks + central FIFO queue: throughput capped at 1/dispatchNs.
	// This is the HYDRO high-frequency bottleneck (Fig. 9a).
	r := flat(1000, 10) // 10ns tasks
	fifo := Simulate(r, Options{Threads: 64, DispatchNs: 100, Policy: FIFOCentral})
	// 1000 dispatches serialized at 100ns each dominate: >= 100us.
	if fifo.MakespanNs < 100*1000 {
		t.Errorf("fifo makespan = %v, want >= 100000 (dispatch-bound)", fifo.MakespanNs)
	}
	steal := Simulate(r, Options{Threads: 64, DispatchNs: 100, Policy: WorkSteal})
	if steal.MakespanNs >= fifo.MakespanNs {
		t.Errorf("work stealing (%v) not faster than central FIFO (%v)", steal.MakespanNs, fifo.MakespanNs)
	}
}

func TestDispatchIrrelevantForLargeTasks(t *testing.T) {
	// Large tasks: dispatch overhead should be negligible (<2%).
	r := flat(128, 1e6)
	with := Simulate(r, Options{Threads: 64, DispatchNs: 100, Policy: FIFOCentral})
	without := Simulate(r, Options{Threads: 64})
	if with.MakespanNs > without.MakespanNs*1.02 {
		t.Errorf("dispatch overhead visible on coarse tasks: %v vs %v", with.MakespanNs, without.MakespanNs)
	}
}

func TestCriticalSectionSerializes(t *testing.T) {
	// 8 tasks fully critical: must serialize regardless of threads.
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{ID: i, DurationNs: 100, CriticalNs: 100}
	}
	s := Simulate(Region{Name: "crit", Tasks: tasks}, Options{Threads: 8})
	if s.MakespanNs < 800 {
		t.Errorf("critical tasks overlapped: makespan = %v", s.MakespanNs)
	}
	if s.CriticalWaitNs == 0 {
		t.Error("no critical wait recorded")
	}
}

func TestImbalanceHurtsEfficiency(t *testing.T) {
	// LULESH mechanism: unbalanced chunks leave threads idle at the barrier.
	bal := flat(64, 10000)
	imb := skewed(64, 10000, 0.5, 1)
	sb := Simulate(bal, Options{Threads: 64})
	si := Simulate(imb, Options{Threads: 64})
	if si.ParallelEfficiency() >= sb.ParallelEfficiency() {
		t.Errorf("imbalance did not hurt: %v vs %v", si.ParallelEfficiency(), sb.ParallelEfficiency())
	}
}

func TestWorkConservation(t *testing.T) {
	// Property: sum of busy time equals total work plus waits charged.
	f := func(seed uint64) bool {
		nTasks := int(seed%50) + 1
		threads := int(seed%7) + 1
		r := skewed(nTasks, 500, 0.4, seed)
		s := Simulate(r, Options{Threads: threads})
		var busy float64
		for _, b := range s.ThreadBusyNs {
			busy += b
		}
		return math.Abs(busy-r.TotalWorkNs()) < 1e-6*math.Max(1, r.TotalWorkNs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMakespanLowerBounds(t *testing.T) {
	// Property: makespan >= max(total work / threads, longest task).
	f := func(seed uint64) bool {
		nTasks := int(seed%64) + 1
		threads := int(seed%15) + 1
		r := skewed(nTasks, 480, 0.6, seed^0xabc)
		s := Simulate(r, Options{Threads: threads})
		var longest float64
		for _, task := range r.Tasks {
			if task.DurationNs > longest {
				longest = task.DurationNs
			}
		}
		lower := math.Max(r.TotalWorkNs()/float64(threads), longest)
		return s.MakespanNs >= lower-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAvgActiveThreads(t *testing.T) {
	r := flat(32, 1000)
	s := Simulate(r, Options{Threads: 64})
	// 32 tasks on 64 threads in one wave: 32 active threads on average.
	if math.Abs(s.AvgActiveThreads()-32) > 0.5 {
		t.Errorf("avg active = %v, want ~32", s.AvgActiveThreads())
	}
}

func TestPolicyString(t *testing.T) {
	if FIFOCentral.String() == "" || WorkSteal.String() == "" {
		t.Error("empty policy names")
	}
}

// TestMinQueuePopsInOrder interleaves pushes and pops, ties on the time
// included, and checks every pop against a sorted reference: the (at, id)
// order is total, so nothing about the pop sequence is left to the heap.
func TestMinQueuePopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var q minQueue
	var ref []qent
	pop := func() {
		sort.Slice(ref, func(i, j int) bool { return ref[i].before(ref[j]) })
		if got := q.pop(); got != ref[0] {
			t.Fatalf("popped %+v, want %+v", got, ref[0])
		}
		ref = ref[1:]
	}
	for id := 0; id < 2000; id++ {
		e := qent{at: float64(rng.Intn(40)), id: id}
		q.push(e)
		ref = append(ref, e)
		if rng.Intn(3) == 0 {
			pop()
		}
	}
	for len(ref) > 0 {
		pop()
	}
	if len(q) != 0 {
		t.Fatalf("%d entries left in the queue", len(q))
	}
}

// TestSimulateAllocations pins the scheduler's allocations to its result and
// bookkeeping slices: nothing per task dispatched. A dependency-free region
// (all the application models produce) needs nine.
func TestSimulateAllocations(t *testing.T) {
	r := skewed(400, 1000, 0.3, 1)
	opts := Options{Threads: 64, DispatchNs: 50, Policy: FIFOCentral}
	if allocs := testing.AllocsPerRun(10, func() { Simulate(r, opts) }); allocs > 10 {
		t.Errorf("%v allocations for %d tasks, want at most 10", allocs, len(r.Tasks))
	}
}

func BenchmarkSimulate(b *testing.B) {
	r := skewed(640, 10000, 0.3, 1)
	opts := Options{Threads: 64, DispatchNs: 50, Policy: FIFOCentral}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(r, opts)
	}
}
