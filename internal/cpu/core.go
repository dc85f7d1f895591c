package cpu

import (
	"math"

	"musa/internal/cache"
	"musa/internal/isa"
)

// Execution latencies in cycles per instruction class. Loads and stores get
// their latency from the annotated cache level instead.
var execLatency = [isa.NumClasses]int64{
	isa.IntALU: 1,
	isa.IntMul: 3,
	isa.FPAdd:  3,
	isa.FPMul:  4,
	isa.FPDiv:  20,
	isa.FPFMA:  5,
	isa.Load:   0, // from cache
	isa.Store:  1, // into store buffer; drains in background
	isa.Branch: 1,
}

// occupancy is the cycles an instruction blocks its port (1 = pipelined).
var occupancy = [isa.NumClasses]int64{
	isa.IntALU: 1,
	isa.IntMul: 1,
	isa.FPAdd:  1,
	isa.FPMul:  1,
	isa.FPDiv:  16, // unpipelined divider
	isa.FPFMA:  1,
	isa.Load:   1,
	isa.Store:  1,
	isa.Branch: 1,
}

// mispredictPenalty is the pipeline refill penalty in cycles.
const mispredictPenalty = 14

// Result accumulates the outcome of one core simulation.
type Result struct {
	Cycles       int64
	Instructions int64 // dynamic ops executed (after fusion)
	LaneWork     int64 // total scalar elements (fusion-invariant work)
	ClassOps     [isa.NumClasses]int64
	ClassLanes   [isa.NumClasses]int64
	Mispredicts  int64

	L1, L2, L3          cache.Stats
	MemReads, MemWrites int64

	// Stall attribution (dispatch-blocked cycles by principal cause).
	StallROB, StallSB, StallRF int64
	ROBOccupancySum            int64 // for average occupancy = Sum/Cycles
}

// IPC returns committed instructions (fused ops) per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// depWindow is the history length for producer lookups. Producer distances
// beyond this are treated as long-resolved. It must stay a power of two:
// the completion ring is indexed with a mask.
const depWindow = 512

// The structural resources a micro-op holds from dispatch to completion, as
// regions of one ring: a store takes a store-buffer entry, every other op a
// rename register of its kind. The port file an op issues on is kind&1: the
// FPUs for resFP, the ALUs otherwise.
const (
	resStore = iota
	resFP
	resInt
	numRes
)

// timing is the whole state of one replay. The Validate bounds fix every
// size, so it lives in RunTiming's frame: a replay allocates nothing, and
// the loop addresses each array off the stack pointer instead of keeping a
// base pointer live per array.
type timing struct {
	// complete holds op i's completion cycle at i&(depWindow-1); zeroSlot,
	// above those, is never written.
	complete [2 * depWindow]int64
	// commitAt holds op i's commit cycle at i&(MaxROB-1); op i reads op
	// i-ROB's at (i-ROB)&(MaxROB-1) before writing its own.
	commitAt [MaxROB]int64
	// ring is the structural ring: region k spans [first[k], end[k]) and
	// next[k] is its cursor; stall[k] accumulates the cycles it held
	// dispatch. The arrays are padded to four so k&3 needs no bounds check.
	ring             [MaxStructural]int64
	first, end, next [4]int
	stall            [4]int64
	// stallROB and robOcc accumulate the cycles the ROB held dispatch and
	// the ROB occupancy.
	stallROB, robOcc int64
	// ports are the two port files, [0] the ALUs and [1] the FPUs, each
	// sorted ascending (absent ports never free).
	ports [2][MaxPorts]int64
	// lat, free and occ are indexed by an op word's selector: the op's
	// execution latency, the cycles after issue its structural entry frees,
	// and the cycles it blocks its port.
	lat, free, occ [numSel]int64
}

// setup prepares the state for one replay on cfg at the given level
// latencies; t must be zero.
func (t *timing) setup(cfg Config, lat LevelLatencies) {
	slots := 0
	for k, n := range [numRes]int{resStore: cfg.StoreBuffer, resFP: cfg.FPRF, resInt: cfg.IntRF} {
		t.first[k], t.next[k] = slots, slots
		slots += n
		t.end[k] = slots
	}
	for u := range MaxPorts {
		if u >= cfg.ALUs {
			t.ports[0][u] = math.MaxInt64
		}
		if u >= cfg.FPUs {
			t.ports[1][u] = math.MaxInt64
		}
	}
	// A non-memory op's entry frees when it completes; so does a load's,
	// after the latency of its level. A store completes in execLatency
	// and holds its store-buffer entry for the drain time (write latency
	// at its level) instead.
	set := func(sel uint32, class isa.Class, latency, free int64) {
		t.lat[sel], t.free[sel], t.occ[sel] = latency, free, occupancy[class]
	}
	for c := isa.IntALU; c <= isa.FPFMA; c++ {
		set(uint32(c), c, execLatency[c], execLatency[c])
	}
	set(selBranch, isa.Branch, execLatency[isa.Branch], execLatency[isa.Branch])
	for l, ml := range [numLevels]int64{lat.L1, lat.L2, lat.L3, lat.Mem} {
		set(selLoad+uint32(l), isa.Load, ml, ml)
		set(selStore+uint32(l), isa.Store, execLatency[isa.Store], ml)
	}
}

// RunTiming replays an annotated trace through the one-pass out-of-order
// timing model (see the package comment) and returns the result. Cache
// statistics are copied from the annotation. It panics on an invalid
// configuration. Ops must hold Compile words.
//
// This is the hottest loop of a sweep (it runs once per fixed-point
// iteration of every point). It reads one op word per instruction, is
// allocation-free, division-free and has no inner loop, so that its
// loop-carried scalars stay in registers; DESIGN.md §15 has the
// measurements. Three invariants make that shape exact rather than
// approximate:
//
//   - Rings need no "has it filled yet" guard. Every ring starts zeroed and
//     slot s of a ring of n is first written by the ring's n-th op, so until
//     the resource has saturated the slot read at dispatch holds 0 and
//     max(dispatchCycle, 0) changes nothing. The same holds for the ROB
//     ring: until op ROB, (i-ROB)&(MaxROB-1) is a slot not yet written.
//   - The store buffer and both register files are one ring. Each op reads
//     one slot of one resource at dispatch and writes that same slot once it
//     knows when the entry frees (a store's drain time, any other op's
//     completion), so the resource is an index carried in the op word, not
//     a branch.
//   - Only the multiset of port-free times matters. An op issues on the
//     earliest-free port of its class and which index held that time never
//     reaches the result, so each class is kept sorted ascending in MaxPorts
//     slots (absent ports never free): issue reads slot 0 and re-inserts the
//     port's next free time with straight-line compare-exchange steps.
func RunTiming(cfg Config, ann AnnotateResult, lat LevelLatencies) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	var t timing
	t.setup(cfg, lat)
	width, rob := cfg.IssueWidth, cfg.ROB
	// Four compare-exchange steps re-sort a file of up to five ports, which
	// covers Table I; only wider cores pay for the other three.
	wide := max(cfg.ALUs, cfg.FPUs) > 5

	var dispatchCycle int64 // cycle the next instruction dispatches
	var inCycle int         // instructions already dispatched this cycle
	var lastCommit int64    // last in-order commit cycle
	var commitsInCycle int
	for i, w := range ann.Ops {
		k := int(w>>opKindShift) & 3
		sel := w >> opSelShift & (numSel - 1)
		p1, p2 := w&opSlotMask, w>>opDep2Shift&opSlotMask
		mispredict := w&opMispredict != 0

		// --- Dispatch: in-order, IssueWidth per cycle. ---
		if inCycle >= width {
			dispatchCycle++
			inCycle = 0
		}
		// Structural stalls push the dispatch cycle forward: first the ROB
		// entry, then the op's store-buffer or register-file entry. Whether
		// either stalls is data-dependent and unpredictable, so both are
		// max + conditional move, not branches.
		slot := t.next[k] & (MaxStructural - 1) // a no-op mask: drops the bounds check
		robFree := max(dispatchCycle, t.commitAt[(i-rob)&(MaxROB-1)])
		disp := max(robFree, t.ring[slot])
		t.stallROB += robFree - dispatchCycle
		t.stall[k] += disp - robFree
		if disp != dispatchCycle {
			inCycle = 0
		}
		dispatchCycle = disp
		inCycle++

		// --- Ready: wait for producers. An absent one reads zeroSlot. ---
		ready := max(disp, t.complete[p1], t.complete[p2])

		// --- Issue on the earliest-free port of the class, and bubble the
		// port's next free time back into the sorted file. ---
		p := &t.ports[k&1]
		start := max(ready, p[0])
		busy := start + t.occ[sel]
		p[0], busy = min(busy, p[1]), max(busy, p[1])
		p[1], busy = min(busy, p[2]), max(busy, p[2])
		p[2], busy = min(busy, p[3]), max(busy, p[3])
		p[3], busy = min(busy, p[4]), max(busy, p[4])
		if wide {
			p[4], busy = min(busy, p[5]), max(busy, p[5])
			p[5], busy = min(busy, p[6]), max(busy, p[6])
			p[6], busy = min(busy, p[7]), max(busy, p[7])
			p[7] = busy
		} else {
			p[4] = busy
		}

		// --- Execute, and free the structural entry. ---
		fin := start + t.lat[sel]
		t.ring[slot] = start + t.free[sel]
		if slot++; slot == t.end[k] {
			slot = t.first[k]
		}
		t.next[k] = slot

		if mispredict {
			// Pipeline flush: dispatch resumes after resolution + refill.
			if fin+mispredictPenalty > dispatchCycle {
				dispatchCycle = fin + mispredictPenalty
				inCycle = 0
			}
		}

		// --- Commit: in-order, IssueWidth per cycle. ---
		if commitsInCycle >= width {
			lastCommit++
			commitsInCycle = 0
		}
		cm := max(fin, lastCommit)
		if cm != lastCommit {
			commitsInCycle = 0
		}
		lastCommit = cm
		commitsInCycle++

		// --- Bookkeeping. ---
		t.complete[i&(depWindow-1)] = fin
		t.commitAt[i&(MaxROB-1)] = cm
		t.robOcc += cm - disp
	}

	// Timing-independent aggregates were counted once at trace build.
	res := Result{
		Instructions: ann.Counts.Instructions,
		LaneWork:     ann.Counts.LaneWork,
		ClassOps:     ann.Counts.ClassOps,
		ClassLanes:   ann.Counts.ClassLanes,
		Mispredicts:  ann.Counts.Mispredicts,
		L1:           ann.L1,
		L2:           ann.L2,
		L3:           ann.L3,
		MemReads:     ann.MemReads,
		MemWrites:    ann.MemWrites,

		StallROB:        t.stallROB,
		StallSB:         t.stall[resStore],
		StallRF:         t.stall[resFP] + t.stall[resInt],
		ROBOccupancySum: t.robOcc,
	}
	if res.Instructions > 0 {
		res.Cycles = lastCommit + 1
	}
	return res
}

// Core bundles a configuration with a cache hierarchy for single-shot
// stream simulation (annotate + timing in one call). The node simulator
// uses Annotate/RunTiming directly to reuse annotations across replays.
type Core struct {
	cfg  Config
	hier *cache.Hierarchy
	seed uint64

	// BranchMispredictRate is the probability a branch flushes the pipeline
	// (an application property; the paper derives it from the traced
	// binary).
	BranchMispredictRate float64
}

// New builds a core bound to a cache hierarchy; it panics on invalid
// configuration.
func New(cfg Config, hier *cache.Hierarchy, seed uint64) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Core{cfg: cfg, hier: hier, seed: seed}
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Run annotates the stream against the core's hierarchy and replays it
// through the timing model. Memory latency comes from the hierarchy's
// configured MemLatencyCycle.
func (c *Core) Run(stream isa.Stream) Result {
	ann := Annotate(stream, c.hier, c.BranchMispredictRate, c.seed, 0)
	h := c.hier.Config()
	lat := LevelLatencies{
		L1:  int64(h.L1.LatencyCycle),
		L2:  int64(h.L2.LatencyCycle),
		L3:  int64(h.L3.LatencyCycle),
		Mem: int64(h.L3.LatencyCycle + h.MemLatencyCycle),
	}
	return RunTiming(c.cfg, ann, lat)
}
