package cpu

import "musa/internal/isa"

// referenceRunTiming is the timing model as it stood before it was made
// branchless and then restructured for register pressure: one plain pass with
// a branch per stall check, runtime-modulo ring indices, a linear port scan
// and counters updated in the result struct. Only the instruction fetch is
// adapted — it unpacks a PackDeps and a PackMeta column (deps, meta: the
// trace before Compile) where the original read a struct per instruction;
// everything after is verbatim, with the cache statistics taken from ann. It
// is the oracle the differential and fuzz tests compare RunTiming against,
// field for field.
func referenceRunTiming(cfg Config, deps, meta []uint32, ann AnnotateResult, lat LevelLatencies) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	var res Result

	// Completion cycles of the last depWindow instructions (ring buffer).
	var complete [depWindow]int64
	// Commit cycles ring for ROB-full stalls: commitAt[i % ROB].
	commitAt := make([]int64, cfg.ROB)
	// Store-buffer drain cycles ring.
	sbFree := make([]int64, cfg.StoreBuffer)
	// Register-file rings: completion cycles of in-flight int/FP producers.
	intRF := make([]int64, cfg.IntRF)
	fpRF := make([]int64, cfg.FPRF)
	var nInt, nFP, nStores int64

	// Port next-free times.
	aluFree := make([]int64, cfg.ALUs)
	fpuFree := make([]int64, cfg.FPUs)

	var dispatchCycle int64 // cycle the next instruction dispatches
	var inCycle int         // instructions already dispatched this cycle
	var lastCommit int64    // last in-order commit cycle
	var commitsInCycle int

	for i64, m := range meta {
		i := int64(i64)
		in := struct {
			Class      isa.Class
			Lanes      uint8
			Level      uint8
			Flags      uint8
			Dep1, Dep2 int32
		}{
			MetaClass(m), MetaLanes(m), MetaLevel(m), MetaFlags(m),
			int32(deps[i64] & 0xffff), int32(deps[i64] >> 16),
		}

		// --- Dispatch: in-order, IssueWidth per cycle. ---
		if inCycle >= cfg.IssueWidth {
			dispatchCycle++
			inCycle = 0
		}
		// Structural stalls push the dispatch cycle forward.
		if i >= int64(cfg.ROB) {
			if free := commitAt[i%int64(cfg.ROB)]; free > dispatchCycle {
				res.StallROB += free - dispatchCycle
				dispatchCycle = free
				inCycle = 0
			}
		}
		switch {
		case in.Class == isa.Store:
			if nStores >= int64(cfg.StoreBuffer) {
				if free := sbFree[nStores%int64(cfg.StoreBuffer)]; free > dispatchCycle {
					res.StallSB += free - dispatchCycle
					dispatchCycle = free
					inCycle = 0
				}
			}
		case in.Class.IsFP():
			if nFP >= int64(cfg.FPRF) {
				if free := fpRF[nFP%int64(cfg.FPRF)]; free > dispatchCycle {
					res.StallRF += free - dispatchCycle
					dispatchCycle = free
					inCycle = 0
				}
			}
		default:
			if nInt >= int64(cfg.IntRF) {
				if free := intRF[nInt%int64(cfg.IntRF)]; free > dispatchCycle {
					res.StallRF += free - dispatchCycle
					dispatchCycle = free
					inCycle = 0
				}
			}
		}
		disp := dispatchCycle
		inCycle++

		// --- Ready: wait for producers. ---
		ready := disp
		if in.Dep1 > 0 && int64(in.Dep1) <= i && int64(in.Dep1) < depWindow {
			if t := complete[(i-int64(in.Dep1))%depWindow]; t > ready {
				ready = t
			}
		}
		if in.Dep2 > 0 && int64(in.Dep2) <= i && int64(in.Dep2) < depWindow {
			if t := complete[(i-int64(in.Dep2))%depWindow]; t > ready {
				ready = t
			}
		}

		// --- Issue to a port. ---
		var ports []int64
		if in.Class.IsFP() {
			ports = fpuFree
		} else {
			ports = aluFree
		}
		unit := 0
		for u := 1; u < len(ports); u++ {
			if ports[u] < ports[unit] {
				unit = u
			}
		}
		start := ready
		if ports[unit] > start {
			start = ports[unit]
		}
		ports[unit] = start + occupancy[in.Class]

		// --- Execute. ---
		latency := execLatency[in.Class]
		switch in.Class {
		case isa.Load:
			latency = lat.Latency(in.Level)
		case isa.Store:
			// Stores retire into the store buffer quickly; the drain time
			// (write latency at the annotated level) holds the SB entry.
			sbFree[nStores%int64(cfg.StoreBuffer)] = start + lat.Latency(in.Level)
			nStores++
		}
		fin := start + latency

		if in.Flags&FlagMispredict != 0 {
			res.Mispredicts++
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
		cm := fin
		if cm < lastCommit {
			cm = lastCommit
		}
		if cm > lastCommit {
			commitsInCycle = 0
		}
		lastCommit = cm
		commitsInCycle++

		// --- Bookkeeping. ---
		complete[i%depWindow] = fin
		commitAt[i%int64(cfg.ROB)] = cm
		if in.Class.IsFP() {
			fpRF[nFP%int64(cfg.FPRF)] = fin
			nFP++
		} else if in.Class != isa.Store {
			intRF[nInt%int64(cfg.IntRF)] = fin
			nInt++
		}
		res.ROBOccupancySum += cm - disp
		res.Instructions++
		res.LaneWork += int64(in.Lanes)
		res.ClassOps[in.Class]++
		res.ClassLanes[in.Class] += int64(in.Lanes)
	}

	if res.Instructions > 0 {
		res.Cycles = lastCommit + 1
	}
	res.L1 = ann.L1
	res.L2 = ann.L2
	res.L3 = ann.L3
	res.MemReads = ann.MemReads
	res.MemWrites = ann.MemWrites
	return res
}
