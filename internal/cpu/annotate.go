package cpu

import (
	"slices"

	"musa/internal/cache"
	"musa/internal/isa"
	"musa/internal/xrand"
)

// An instruction is described by two packed words: a PackDeps word holding
// its producer distances and a PackMeta word holding everything else —
// class, lanes, cache level, flags. Cache behavior is independent of core
// timing and memory latency, so an annotated trace can be replayed through
// the timing model many times — across the bandwidth-contention fixed point
// and across core/frequency configurations that share the same cache
// configuration — without re-simulating the cache hierarchy. This mirrors
// MUSA's split between trace generation and timing simulation and is what
// makes the 864-point sweep cheap. The replay itself reads neither word:
// Compile folds both into one op word, built once per annotated trace, so
// the loop decodes nothing its ~26 replays per annotation group would each
// decode again.

// Meta word layout. Level holds a cache.Level for memory ops (0 otherwise);
// Flags is the FlagMispredict bit set.
const (
	MetaLanesShift = 8
	MetaLevelShift = 16
	MetaFlagsShift = 24
)

// PackMeta builds one meta word.
func PackMeta(class isa.Class, lanes, level, flags uint8) uint32 {
	return uint32(class) | uint32(lanes)<<MetaLanesShift |
		uint32(level)<<MetaLevelShift | uint32(flags)<<MetaFlagsShift
}

// MetaClass, MetaLevel and MetaFlags unpack one meta word.
func MetaClass(m uint32) isa.Class { return isa.Class(m) }
func MetaLevel(m uint32) uint8     { return uint8(m >> MetaLevelShift) }
func MetaFlags(m uint32) uint8     { return uint8(m >> MetaFlagsShift) }

// FlagMispredict, in a meta word's flags byte, marks a branch drawn as
// mispredicted.
const FlagMispredict = 1

// PackDeps folds both producer distances of the instruction at position i
// into one word (Dep1 in the low half, Dep2 in the high half), resolving
// the timing model's validity conditions — a producer exists (d > 0), is
// inside the trace (d <= i) and inside the completion window (d <
// depWindow) — to zero at build time.
func PackDeps(i int64, d1, d2 int32) uint32 {
	var v uint32
	if d1 > 0 && int64(d1) <= i && d1 < depWindow {
		v = uint32(d1)
	}
	if d2 > 0 && int64(d2) <= i && d2 < depWindow {
		v |= uint32(d2) << 16
	}
	return v
}

// Op word layout: what Compile resolves and RunTiming reads. Bits 0–9 and
// 10–19 are the producers' completion-ring slots (zeroSlot for no
// producer), bits 20–23 the selector into the replay's per-call latency,
// free-time and occupancy tables, bits 24–25 the structural resource the op
// holds (resStore, resFP or resInt; kind&1 is its port file), bit 26 the
// mispredict flag.
const (
	opSlotMask      = 1<<10 - 1
	opDep2Shift     = 10
	opSelShift      = 20
	opKindShift     = 24
	opMispredictBit = 26
	opMispredict    = 1 << opMispredictBit
)

// Selectors: one per non-memory class, then one per load level and one per
// store level, L1 to memory.
const (
	selBranch = uint32(isa.FPFMA) + 1 // the non-memory classes below it are their own selector
	selLoad   = selBranch + 1
	selStore  = selLoad + numLevels
	numSel    = 16
	numLevels = 4 // L1, L2, L3, memory
)

// zeroSlot is the completion-ring slot no op writes: a dependence PackDeps
// zeroed reads it, and its 0 never delays an op.
const zeroSlot = depWindow

// opClass holds the selector and resource bits of an op word per class and
// cache level. Level 0 — no level, and every level past memory — selects
// L1, as the reference timing's LevelLatencies.Latency does; a non-memory
// class ignores its level.
var opClass = func() (t [isa.NumClasses][cache.LevelMem + 1]uint32) {
	for c := range isa.NumClasses {
		for l := range t[c] {
			sel, kind := uint32(c), uint32(resInt)
			mem := uint32(max(l, int(cache.LevelL1)) - int(cache.LevelL1))
			switch {
			case c == isa.Load:
				sel = selLoad + mem
			case c == isa.Store:
				sel, kind = selStore+mem, resStore
			case c == isa.Branch:
				sel = selBranch
			case c.IsFP():
				kind = resFP
			}
			t[c][l] = sel<<opSelShift | kind<<opKindShift
		}
	}
	return t
}()

// Compile compiles a trace — its PackDeps and PackMeta columns and one cache
// level per instruction, overlaid on the meta words' level byte — into the
// op column RunTiming reads, one word per instruction. It is branch-free per
// instruction: the class and level index a table, and an absent producer
// selects zeroSlot by a conditional move. It panics on columns shorter than
// meta and on a class outside isa's.
func Compile(deps, meta []uint32, levels []uint8) []uint32 {
	return CompileInto(nil, deps, meta, levels)
}

// CompileInto is Compile writing into dst's storage, which it grows only
// when dst's capacity is short of len(meta): a caller that compiles trace
// after trace keeps one column. The result is dst's storage, so dst must
// have no other reader.
func CompileInto(dst, deps, meta []uint32, levels []uint8) []uint32 {
	ops := slices.Grow(dst[:0], len(meta))[:len(meta)]
	deps, levels = deps[:len(meta)], levels[:len(meta)]
	for i, m := range meta {
		level := MetaLevel(m) | levels[i]
		if level > uint8(cache.LevelMem) {
			level = 0
		}
		d := deps[i]
		ops[i] = opClass[MetaClass(m)][level] |
			ringSlot(i, d&0xffff) | ringSlot(i, d>>16)<<opDep2Shift |
			uint32(MetaFlags(m)&FlagMispredict)<<opMispredictBit
	}
	return ops
}

// ringSlot is the completion-ring slot of the producer d ops before op i,
// zeroSlot for none.
func ringSlot(i int, d uint32) uint32 {
	s := uint32(i-int(d)) & (depWindow - 1)
	if d == 0 {
		s = zeroSlot
	}
	return s
}

// TraceCounts are the timing-independent aggregates of an annotated trace:
// pure functions of the meta column, identical for every timing replay of
// the trace, so they are counted once at build time instead of
// re-accumulated inside every RunTiming call.
type TraceCounts struct {
	Instructions int64 // dynamic ops (after fusion)
	LaneWork     int64 // total scalar elements
	Mispredicts  int64
	ClassOps     [isa.NumClasses]int64
	ClassLanes   [isa.NumClasses]int64
}

// CountMeta accumulates the trace aggregates of one meta column.
func CountMeta(meta []uint32) TraceCounts {
	var c TraceCounts
	for _, m := range meta {
		class := isa.Class(m & 0xff)
		lanes := int64(uint8(m >> MetaLanesShift))
		c.Instructions++
		c.LaneWork += lanes
		c.ClassOps[class]++
		c.ClassLanes[class] += lanes
		if m&(FlagMispredict<<MetaFlagsShift) != 0 {
			c.Mispredicts++
		}
	}
	return c
}

// AnnotateResult bundles the annotated trace — one op word per fused
// instruction (Compile) — with the trace aggregates and the cache
// statistics of the measured window. The op column is immutable once built:
// every timing replay of an annotation group reads the same one.
type AnnotateResult struct {
	Ops                 []uint32 // Compile words
	Counts              TraceCounts
	L1, L2, L3          cache.Stats
	MemReads, MemWrites int64
}

// Len returns the annotated instruction count.
func (a *AnnotateResult) Len() int { return len(a.Ops) }

// Annotate resolves the cache level of every memory access in the stream,
// pre-draws branch misprediction outcomes and compiles each instruction
// into its op word. The hierarchy should already be warm (see Warm); its
// statistics are reset at the start of annotation so the returned stats
// cover exactly the annotated window. sizeHint, when positive, preallocates
// the op column (an upper bound is fine — the caller usually knows the
// scalar budget the stream was built from, and fusion only shrinks it).
func Annotate(stream isa.Stream, hier *cache.Hierarchy, mispredictRate float64, seed uint64, sizeHint int) AnnotateResult {
	hier.ResetStats()
	rng := xrand.New(seed)
	if sizeHint < 0 {
		sizeHint = 0
	}
	deps := make([]uint32, 0, sizeHint)
	meta := make([]uint32, 0, sizeHint)
	levels := make([]uint8, 0, sizeHint)
	for {
		in, ok := stream.Next()
		if !ok {
			break
		}
		var level, flags uint8
		if in.Class.IsMem() {
			lvl, _ := hier.Access(in.Addr, int(in.Size), in.Class == isa.Store)
			level = uint8(lvl)
		}
		if in.Class == isa.Branch && mispredictRate > 0 && rng.Bernoulli(mispredictRate) {
			flags |= FlagMispredict
		}
		deps = append(deps, PackDeps(int64(len(meta)), in.Dep1, in.Dep2))
		meta = append(meta, PackMeta(in.Class, in.Lanes, 0, flags))
		levels = append(levels, level)
	}
	return AnnotateResult{
		Ops:       Compile(deps, meta, levels),
		Counts:    CountMeta(meta),
		L1:        hier.L1Stats(),
		L2:        hier.L2Stats(),
		L3:        hier.L3Stats(),
		MemReads:  hier.MemReads,
		MemWrites: hier.MemWrites,
	}
}

// Warm streams instructions through the hierarchy to populate cache contents
// without recording anything.
func Warm(stream isa.Stream, hier *cache.Hierarchy) {
	for {
		in, ok := stream.Next()
		if !ok {
			return
		}
		if in.Class.IsMem() {
			hier.Access(in.Addr, int(in.Size), in.Class == isa.Store)
		}
	}
}

// LevelLatencies gives the load-to-use latency in core cycles per hierarchy
// level. Mem must include the L3 lookup cost.
type LevelLatencies struct {
	L1, L2, L3, Mem int64
}

// LatenciesFor derives the level latencies from a hierarchy configuration
// and an effective memory latency in nanoseconds at the given clock.
func LatenciesFor(h cache.HierarchyConfig, memLatNs, freqGHz float64) LevelLatencies {
	memCycles := int64(memLatNs * freqGHz)
	return LevelLatencies{
		L1:  int64(h.L1.LatencyCycle),
		L2:  int64(h.L2.LatencyCycle),
		L3:  int64(h.L3.LatencyCycle),
		Mem: int64(h.L3.LatencyCycle) + memCycles,
	}
}
