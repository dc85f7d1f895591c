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

// MemRequestsPerCycle returns DRAM line requests per cycle, used by the node
// model to compute offered bandwidth.
func (r Result) MemRequestsPerCycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.MemReads+r.MemWrites) / float64(r.Cycles)
}

// depWindow is the history length for producer lookups. Producer distances
// beyond this are treated as long-resolved. It must stay a power of two:
// the completion ring is indexed with a mask.
const depWindow = 512

// levelIndex extracts a meta word's cache level as an index into a
// LevelLatencies table, mapping out-of-range values (a corrupt artifact) to
// 0 — the same L1 fallback LevelLatencies.Latency applies.
func levelIndex(m uint32) uint8 {
	lvl := uint8(m >> MetaLevelShift)
	if lvl > uint8(cache.LevelMem) {
		return 0
	}
	return lvl
}

// The structural resources a micro-op holds from dispatch to completion, as
// regions of one ring: a store takes a store-buffer entry, every other op a
// rename register of its kind.
const (
	resStore = iota
	resFP
	resInt
	numRes
)

// RunTiming replays an annotated trace through the one-pass out-of-order
// timing model (see the package comment) and returns the result. Cache
// statistics are copied from the annotation. It panics on an invalid
// configuration. Meta and Deps must hold PackMeta and PackDeps words: the
// loop trusts FlagFP to mean an FP class (so never a store) and a non-zero
// distance to lie inside the trace and the completion window.
//
// This is the hottest loop of a sweep (it runs once per fixed-point
// iteration of every point). It is allocation-free past its rings,
// division-free and has no inner loop, so that its loop-carried scalars stay
// in registers; DESIGN.md §15 has the measurements. Three invariants make
// that shape exact rather than approximate:
//
//   - Rings need no "has it filled yet" guard. Every ring starts zeroed and
//     slot s of a ring of n is first written by the ring's n-th op, so until
//     the resource has saturated the slot read at dispatch holds 0 and
//     max(dispatchCycle, 0) changes nothing.
//   - The store buffer and both register files are one ring. Each op reads
//     one slot of one resource at dispatch and writes that same slot once it
//     knows when the entry frees (a store's drain time, any other op's
//     completion), so the resource is an index computed from the meta word,
//     not a branch.
//   - Only the multiset of port-free times matters. An op issues on the
//     earliest-free port of its class and which index held that time never
//     reaches the result, so each class is kept sorted ascending in MaxPorts
//     slots (absent ports never free): issue reads slot 0 and re-inserts the
//     port's next free time with straight-line compare-exchange steps.
func RunTiming(cfg Config, ann AnnotateResult, lat LevelLatencies) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	latTab := lat.table()

	// Completion cycles of the last depWindow instructions (ring buffer).
	var complete [depWindow]int64
	// Commit cycles ring for ROB-full stalls, indexed by an
	// increment-and-wrap cursor (the ROB size is not a power of two).
	commitAt := make([]int64, cfg.ROB)
	robIdx := 0

	// The structural ring: region k spans [first[k], end[k]) and next[k] is
	// its cursor. The arrays are padded to four so k&3 needs no bounds check.
	var first, end, next [4]int
	var stall [4]int64
	slots := 0
	for k, n := range [numRes]int{resStore: cfg.StoreBuffer, resFP: cfg.FPRF, resInt: cfg.IntRF} {
		first[k], next[k] = slots, slots
		slots += n
		end[k] = slots
	}
	ring := make([]int64, slots)

	// Port files: [0] the ALUs, [1] the FPUs, the FlagFP bit indexes them.
	var ports [2][MaxPorts]int64
	for u := range MaxPorts {
		if u >= cfg.ALUs {
			ports[0][u] = math.MaxInt64
		}
		if u >= cfg.FPUs {
			ports[1][u] = math.MaxInt64
		}
	}
	// Four compare-exchange steps re-sort a file of up to five ports, which
	// covers Table I; only wider cores pay for the other three.
	wide := max(cfg.ALUs, cfg.FPUs) > 5

	var dispatchCycle int64 // cycle the next instruction dispatches
	var inCycle int         // instructions already dispatched this cycle
	var lastCommit int64    // last in-order commit cycle
	var commitsInCycle int
	var stallROB, robOcc int64

	metas := ann.Meta
	if len(ann.Deps) < len(metas) {
		panic("cpu: annotation dep column shorter than meta column")
	}
	deps := ann.Deps[:len(metas)] // bounds-check elimination for deps[i64]

	for i64, m := range metas {
		i := int64(i64)
		class := isa.Class(m & 0xff)
		fp := int(m>>MetaFlagsShift) / FlagFP & 1 // the FlagFP bit: 1 for an FP class
		k := resInt - fp
		if class == isa.Store {
			k = resStore
		}

		// --- Dispatch: in-order, IssueWidth per cycle. ---
		if inCycle >= cfg.IssueWidth {
			dispatchCycle++
			inCycle = 0
		}
		// Structural stalls push the dispatch cycle forward: first the ROB
		// entry, then the op's store-buffer or register-file entry. Whether
		// either stalls is data-dependent and unpredictable, so both are
		// max + conditional move, not branches.
		slot := next[k&3]
		robFree := max(dispatchCycle, commitAt[robIdx])
		disp := max(robFree, ring[slot])
		stallROB += robFree - dispatchCycle
		stall[k&3] += disp - robFree
		if disp != dispatchCycle {
			inCycle = 0
		}
		dispatchCycle = disp
		inCycle++

		// --- Ready: wait for producers (validity pre-resolved by PackDeps). ---
		// Producer presence is data-dependent and defeats the branch
		// predictor, so both ring slots are loaded unconditionally (d == 0
		// reads the instruction's own slot, a stale value the conditional
		// move below discards) and folded in with selects.
		dp := deps[i64]
		d1 := int64(dp & 0xffff)
		d2 := int64(dp >> 16)
		v1 := complete[(i-d1)&(depWindow-1)]
		v2 := complete[(i-d2)&(depWindow-1)]
		if d1 == 0 {
			v1 = 0
		}
		if d2 == 0 {
			v2 = 0
		}
		ready := max(disp, v1, v2)

		// --- Issue on the earliest-free port of the class, and bubble the
		// port's next free time back into the sorted file. ---
		p := &ports[fp]
		start := max(ready, p[0])
		busy := start + occupancy[class]
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

		// --- Execute. ---
		// The memory-level latency is computed unconditionally (a shift and
		// a table load) so the load and store cases are selects.
		memLat := latTab[levelIndex(m)]
		latency := execLatency[class]
		if class == isa.Load {
			latency = memLat
		}
		fin := start + latency
		// The structural entry frees at completion; a store retires into
		// the store buffer quickly and holds its entry for the drain time
		// (write latency at the annotated level) instead.
		freeAt := fin
		if class == isa.Store {
			freeAt = start + memLat
		}
		ring[slot] = freeAt
		if slot++; slot == end[k&3] {
			slot = first[k&3]
		}
		next[k&3] = slot

		if m&(FlagMispredict<<MetaFlagsShift) != 0 {
			// Pipeline flush: dispatch resumes after resolution + refill.
			if fin+mispredictPenalty > dispatchCycle {
				dispatchCycle = fin + mispredictPenalty
				inCycle = 0
			}
		}

		// --- Commit: in-order, IssueWidth per cycle. ---
		if commitsInCycle >= cfg.IssueWidth {
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
		complete[i&(depWindow-1)] = fin
		commitAt[robIdx] = cm
		if robIdx++; robIdx == cfg.ROB {
			robIdx = 0
		}
		robOcc += cm - disp
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

		StallROB:        stallROB,
		StallSB:         stall[resStore],
		StallRF:         stall[resFP] + stall[resInt],
		ROBOccupancySum: robOcc,
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
