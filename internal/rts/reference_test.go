package rts

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// referenceSimulate is the scheduler as it was before regions were compiled:
// it validates the region and builds its successor lists, in-degrees and
// queues on every call. The compiled scheduler must match it bit for bit.
func referenceSimulate(region Region, opts Options) Schedule {
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

	serialEnd := region.SerialNs
	s.ThreadBusyNs[0] = region.SerialNs
	s.MakespanNs = serialEnd

	if n == 0 {
		return s
	}

	indeg := make([]int, n)
	succ := make([][]int, n)
	readyAt := make([]float64, n)
	for i, t := range region.Tasks {
		indeg[i] = len(t.Deps)
		for _, d := range t.Deps {
			succ[d] = append(succ[d], i)
		}
		readyAt[i] = serialEnd
	}

	rq := make(minQueue, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			rq.push(qent{at: readyAt[i], id: i})
		}
	}

	tq := make(minQueue, 0, opts.Threads)
	for th := 0; th < opts.Threads; th++ {
		at := 0.0
		if th == 0 {
			at = serialEnd
		}
		tq.push(qent{at: at, id: th})
	}

	var dispatchGate float64
	var critFree float64
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
			start = maxf(start, dispatchGate)
			start += opts.DispatchNs
			dispatchGate = start
		case WorkSteal:
			start += opts.DispatchNs
		}
		s.DispatchNs += opts.DispatchNs

		end := start + task.DurationNs
		if task.CriticalNs > 0 {
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

// randomDAG draws a region of up to 300 tasks whose dependencies point at
// earlier tasks (duplicates included), with a serial preamble and critical
// sections on about a third of the tasks. Durations are often equal, so
// ties in the queues are common; some are zero, so with no dispatch cost a
// released task can be ready as early as the tasks without dependencies.
func randomDAG(rng *rand.Rand) Region {
	r := Region{Name: "dag", SerialNs: float64(rng.Intn(3)) * 173.25}
	n := rng.Intn(300)
	for i := 0; i < n; i++ {
		t := Task{ID: i, DurationNs: float64(rng.Intn(9)) * 125}
		if rng.Intn(2) == 0 {
			t.DurationNs *= 1 + rng.Float64()
		}
		if rng.Intn(3) == 0 {
			t.CriticalNs = t.DurationNs * rng.Float64()
		}
		if i > 0 {
			for d := rng.Intn(4); d > 0; d-- {
				t.Deps = append(t.Deps, rng.Intn(i))
			}
		}
		r.Tasks = append(r.Tasks, t)
	}
	return r
}

// scaled returns a copy of r with every duration multiplied by scale: the
// region a compiled run at that scale must schedule.
func scaled(r Region, scale float64) Region {
	out := r
	out.SerialNs *= scale
	out.Tasks = append([]Task(nil), r.Tasks...)
	for i := range out.Tasks {
		out.Tasks[i].DurationNs *= scale
		out.Tasks[i].CriticalNs *= scale
	}
	return out
}

// TestCompiledMatchesReference holds the compiled scheduler to the reference
// on random DAGs under both policies and 1–128 threads: Simulate field for
// field, and a compiled run at a random scale against the reference on the
// scaled copy. One Scratch serves every case, so it is reused across region
// sizes and thread counts in both directions.
func TestCompiledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var sc Scratch
	for i := 0; i < 400; i++ {
		r := randomDAG(rng)
		opts := Options{
			Threads:    1 + rng.Intn(128),
			DispatchNs: float64(rng.Intn(4)) * 37.5,
			Policy:     Policy(rng.Intn(2)),
		}
		if got, want := Simulate(r, opts), referenceSimulate(r, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%d tasks, %+v): Simulate differs from the reference", i, len(r.Tasks), opts)
		}
		scale := 0.25 + 3*rng.Float64()
		c, err := Compile(r)
		if err != nil {
			t.Fatal(err)
		}
		got, want := c.Run(opts, scale, &sc), referenceSimulate(scaled(r, scale), opts)
		if got.MakespanNs != want.MakespanNs || got.DispatchNs != want.DispatchNs ||
			got.CriticalWaitNs != want.CriticalWaitNs || !reflect.DeepEqual(got.ThreadBusyNs, want.ThreadBusyNs) {
			t.Fatalf("case %d (%d tasks, %+v, scale %v): compiled run %+v, reference %+v",
				i, len(r.Tasks), opts, scale, got, want)
		}
		if got.TaskThread != nil || got.TaskStartNs != nil || got.TaskEndNs != nil {
			t.Fatalf("case %d: a compiled run recorded per-task placement", i)
		}
	}
}

// TestCompiledRunAllocatesNothing pins the per-point half of the scheduler:
// once its scratch has grown, a compiled run allocates nothing, whatever the
// dependencies.
func TestCompiledRunAllocatesNothing(t *testing.T) {
	r := randomDAG(rand.New(rand.NewSource(7)))
	for len(r.Tasks) < 100 {
		r.Tasks = append(r.Tasks, Task{ID: len(r.Tasks), DurationNs: 500, Deps: []int{len(r.Tasks) / 2}})
	}
	c, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	opts := Options{Threads: 64, DispatchNs: 50, Policy: WorkSteal}
	c.Run(opts, 1, &sc)
	if allocs := testing.AllocsPerRun(20, func() { c.Run(opts, 1.5, &sc) }); allocs != 0 {
		t.Errorf("%v allocations per compiled run with warm scratch, want 0", allocs)
	}
}

func TestCompileRefusesInvalidRegion(t *testing.T) {
	if _, err := Compile(Region{Tasks: []Task{{ID: 0, Deps: []int{0}}}}); err == nil {
		t.Error("self-dependency compiled")
	}
}
