package isa

import (
	"reflect"
	"slices"
)

// Decoder implements the tracing-side half of the paper's vector model: it
// breaks every vector instruction (Lanes > 1) into scalar micro-ops that
// share the original PC as a fusion marker. Memory accesses are split into
// per-lane accesses of ElemBits/8 bytes at consecutive addresses.
type Decoder struct {
	S Stream

	pending Instr
	left    int
}

// NewDecoder returns a stream of scalarized micro-ops for s.
func NewDecoder(s Stream) *Decoder { return &Decoder{S: s} }

// Next implements Stream.
func (d *Decoder) Next() (Instr, bool) {
	if d.left > 0 {
		d.left--
		out := d.pending
		lane := int(d.pending.Lanes) - d.left - 1
		if out.Class.IsMem() {
			out.Addr += uint64(lane * (ElemBits / 8))
		}
		out.Lanes = 1
		return out, true
	}
	in, ok := d.S.Next()
	if !ok {
		return Instr{}, false
	}
	if in.Lanes <= 1 {
		return in, true
	}
	// Scalarize: emit lane 0 now, remember the rest.
	d.pending = in
	if in.Class.IsMem() {
		d.pending.Size = uint16(ElemBits / 8)
	}
	d.left = int(in.Lanes) - 1
	out := d.pending
	out.Lanes = 1
	return out, true
}

// FuserConfig parametrizes the simulation-side fusion model.
type FuserConfig struct {
	// WidthBits is the SIMD width to simulate (128, 256, 512, 1024, 2048 or
	// 64 to force fully scalar FPUs).
	WidthBits int
	// MinRun is the number of consecutive executions of the same basic block
	// required before cross-iteration fusion applies (paper: "we require a
	// basic block to be executed several times in a row"). Fusion up to the
	// traced width (within one block execution) is always allowed.
	MinRun int
	// MaxBlock bounds the number of micro-ops buffered per basic-block
	// execution; blocks larger than this are passed through unfused. It
	// protects the fuser against traces without block markers.
	MaxBlock int
}

// DefaultFuserConfig mirrors the settings used throughout the evaluation.
func DefaultFuserConfig(widthBits int) FuserConfig {
	return FuserConfig{WidthBits: widthBits, MinRun: 4, MaxBlock: 4096}
}

// Fuser implements the simulation-side half of the vector model. It consumes
// a scalarized stream and emits a stream where vectorizable micro-ops that
// share a static PC are fused into SIMD ops of up to WidthBits/ElemBits
// lanes. Fused memory ops keep the first lane's address and grow their Size,
// so the cache and DRAM models observe the widened footprint (the paper
// doubles request sizes when fusing two memory ops).
//
// Fusion happens in two regimes, as in the paper:
//   - within a single basic-block execution, micro-ops carrying the same PC
//     (the scalarized lanes of one traced SSE instruction) always fuse;
//   - across consecutive executions of the same basic block, micro-ops of
//     the same static instruction fuse only when the block repeats at least
//     MinRun times in a row, enabling widths beyond the traced 128 bits.
type Fuser struct {
	cfg FuserConfig
	s   Stream // nil once src holds every micro-op still to come
	// src[spos:] are the raw micro-ops not yet consumed: the whole stream when
	// it is a *SliceStream — runs are windows over it, nothing is copied —
	// and otherwise the lookahead pulled from s so far.
	src   []Instr
	spos  int
	out   []Instr // fused ops ready for delivery
	opos  int
	stats FuserStats

	// Scratch of fuseRun, reused from run to run so that a fuse
	// allocates a constant number of times, not once per basic-block run.
	slotAt [slotTableSize]int32 // PC - the run's lowest PC -> slot+1 (0: none yet)
	slotOf map[uint32]int32     // static PC -> slot, for runs slotAt cannot span
	slot   []int32              // slot of each micro-op of the run
	cur    []int32              // per slot: instance count, then cursor into bySlot
	bySlot []int32              // run indices grouped by slot, in run order
}

// slotTableSize is the PC span fuseRun numbers slots through a table instead
// of a map: every basic block DetailedStream emits spans at most 64 PCs.
const slotTableSize = 64

// FuserStats counts the fusion activity, exposed for tests and reports.
type FuserStats struct {
	In     int64 // micro-ops consumed by the runs fused so far
	Out    int64 // ops emitted
	Fused  int64 // micro-ops that were folded into a wider op
	Blocks int64 // basic-block runs processed
}

// NewFuser returns a fusing stream over s. The fuser takes ownership of s:
// it may consume the stream through a devirtualized fast path that leaves
// s's own cursor untouched.
func NewFuser(s Stream, cfg FuserConfig) *Fuser {
	f := &Fuser{slotOf: map[uint32]int32{}}
	f.Reset(cfg)
	f.s = s
	if ss, ok := s.(*SliceStream); ok {
		// Window straight over the slice: one dynamic dispatch and a 32-byte
		// copy per instruction is real money on multi-million instruction
		// windows.
		f.s, f.src, f.spos = nil, ss.Instrs, ss.pos
	}
	return f
}

// Reset makes f a fuser of cfg with no input and zero counters, keeping its
// scratch: Feed gives it its input, and it then fuses as a new fuser would.
func (f *Fuser) Reset(cfg FuserConfig) {
	if cfg.WidthBits < ElemBits {
		cfg.WidthBits = ElemBits
	}
	if cfg.MinRun < 1 {
		cfg.MinRun = 1
	}
	if cfg.MaxBlock <= 0 {
		cfg.MaxBlock = 4096
	}
	f.cfg, f.stats = cfg, FuserStats{}
	f.s, f.src, f.spos = nil, nil, 0
	f.out, f.opos = f.out[:0], 0
	clear(f.slotOf)
}

// Bytes is the storage of f's scratch: its slices' capacities.
func (f *Fuser) Bytes() int64 {
	return int64(cap(f.out))*int64(reflect.TypeFor[Instr]().Size()) + 4*int64(cap(f.slot)+cap(f.cur)+cap(f.bySlot))
}

// Feed makes instrs the fuser's input in place of whatever of the old input
// is left, keeping the scratch and the counters. A run never spans a change
// of basic block, so a stream cut where the block changes and fed piece by
// piece fuses to exactly the ops of the whole stream. The fuser reads instrs
// in place until the next Feed; it must not be written meanwhile.
func (f *Fuser) Feed(instrs []Instr) {
	f.s, f.src, f.spos = nil, instrs, 0
	f.out, f.opos = f.out[:0], 0
}

// Stats returns the fusion counters accumulated so far.
func (f *Fuser) Stats() FuserStats { return f.stats }

// MaxLanes returns the lane capacity of the configured width.
func (f *Fuser) MaxLanes() int { return f.cfg.WidthBits / ElemBits }

// Next implements Stream.
func (f *Fuser) Next() (Instr, bool) {
	for f.opos >= len(f.out) {
		if !f.fill() {
			return Instr{}, false
		}
	}
	in := f.out[f.opos]
	f.opos++
	return in, true
}

// NextRun returns the fused ops of the next basic-block run — or, after Next
// has handed out part of a run, the rest of it — in the order Next returns
// them; false at end of stream. The slice is the fuser's own buffer: it is
// valid until the next call of Next or NextRun, and must not be written.
func (f *Fuser) NextRun() ([]Instr, bool) {
	for f.opos >= len(f.out) {
		if !f.fill() {
			return nil, false
		}
	}
	run := f.out[f.opos:]
	f.opos = len(f.out)
	return run, true
}

// pull appends the stream's next micro-op to the lookahead; false at EOF.
func (f *Fuser) pull() bool {
	if f.s == nil {
		return false
	}
	in, ok := f.s.Next()
	if !ok {
		f.s = nil
		return false
	}
	f.src = append(f.src, in)
	return true
}

// fill fuses the next basic-block run into out.
func (f *Fuser) fill() bool {
	f.out = f.out[:0]
	f.opos = 0
	if f.s != nil && f.spos > 0 {
		// Drop the consumed prefix of the lookahead (at most one micro-op,
		// the one that ended the previous run, stays).
		f.src = f.src[:copy(f.src, f.src[f.spos:])]
		f.spos = 0
	}
	if f.spos >= len(f.src) && !f.pull() {
		return false
	}
	bb, firstPC := f.src[f.spos].BB, f.src[f.spos].PC

	// Gather whole executions ("bodies") of this basic block while it
	// repeats back-to-back. A body begins whenever firstPC reappears.
	bodies := 1
	maxNeed := f.MaxLanes() * f.cfg.MinRun * 4 // generous lookahead bound
	n := 1
	for ; n < f.cfg.MaxBlock; n++ {
		if f.spos+n >= len(f.src) && !f.pull() {
			break
		}
		in := &f.src[f.spos+n]
		if in.BB != bb {
			break
		}
		if in.PC == firstPC {
			if bodies >= maxNeed {
				break
			}
			bodies++
		}
	}
	run := f.src[f.spos : f.spos+n]
	f.spos += n

	if bodies >= f.cfg.MinRun {
		f.fuseRun(run)
	} else {
		f.fuseWithinBodies(run)
	}
	// Every micro-op of the run is a lane of exactly one emitted op.
	f.stats.In += int64(n)
	f.stats.Out += int64(len(f.out))
	f.stats.Fused += int64(n - len(f.out))
	f.stats.Blocks++
	return true
}

// fuseWithinBodies fuses only adjacent same-PC micro-ops (the scalarized
// lanes of one traced vector instruction), capped at the traced width. This
// is the regime for blocks that do not repeat often enough.
func (f *Fuser) fuseWithinBodies(run []Instr) {
	cap128 := TracedWidthBits / ElemBits
	maxLanes := f.MaxLanes()
	if maxLanes > cap128 {
		maxLanes = cap128
	}
	out := f.out
	for i := 0; i < len(run); {
		in := &run[i]
		if !in.Vectorizable || maxLanes == 1 {
			out = appendFused(out, in, 1)
			i++
			continue
		}
		j := i + 1
		for j < len(run) && j-i < maxLanes && run[j].PC == in.PC && run[j].Vectorizable {
			j++
		}
		out = appendFused(out, in, j-i)
		i = j
	}
	f.out = out
}

// fuseRun performs cross-iteration fusion over a run of several executions
// of one basic block: for each static instruction, dynamic instances from
// consecutive bodies are folded together up to the configured lane count.
// Every fused op keeps the address and dependencies of its group's first
// instance (the lanes are assumed unit-stride from there, as the decoder
// produced them). Non-vectorizable micro-ops (branches, address arithmetic,
// pointer chases) are emitted one per instance, preserving their own
// addresses and producer distances.
func (f *Fuser) fuseRun(run []Instr) {
	// A slot is a static PC, numbered in encounter order over the run: the
	// first body's PCs first (it is the run's prefix), then PCs that appear
	// only in later, ragged bodies. A run whose PCs span less than the slot
	// table looks them up by offset from its lowest PC; a wider one, in the
	// map. Both number the same slots.
	f.slot = slices.Grow(f.slot[:0], len(run))[:len(run)]
	f.bySlot = slices.Grow(f.bySlot[:0], len(run))[:len(run)]
	slot, cur := f.slot, f.cur[:0]
	pcLo, pcHi := run[0].PC, run[0].PC
	for i := range run {
		pcLo, pcHi = min(pcLo, run[i].PC), max(pcHi, run[i].PC)
	}
	if pcHi-pcLo < slotTableSize {
		at := &f.slotAt
		for i := range run {
			k := run[i].PC - pcLo
			s := at[k] - 1
			if s < 0 {
				s = int32(len(cur))
				at[k] = s + 1
				cur = append(cur, 0)
			}
			slot[i] = s
			cur[s]++
		}
		clear(at[:pcHi-pcLo+1])
	} else {
		clear(f.slotOf)
		for i := range run {
			s, ok := f.slotOf[run[i].PC]
			if !ok {
				s = int32(len(cur))
				f.slotOf[run[i].PC] = s
				cur = append(cur, 0)
			}
			slot[i] = s
			cur[s]++
		}
	}
	// Group the run's indices by slot, stably: a counting sort.
	var lo int32
	for s, n := range cur {
		cur[s] = lo
		lo += n
	}
	for i, s := range slot {
		f.bySlot[cur[s]] = int32(i)
		cur[s]++
	}
	f.cur = cur

	maxLanes := f.MaxLanes()
	out := f.out
	lo = 0
	for _, hi := range cur { // cur[s] is now the end of slot s
		ins := f.bySlot[lo:hi]
		lo = hi
		if !run[ins[0]].Vectorizable {
			for _, i := range ins {
				out = appendFused(out, &run[i], 1)
			}
			continue
		}
		for i := 0; i < len(ins); i += maxLanes {
			out = appendFused(out, &run[ins[i]], min(maxLanes, len(ins)-i))
		}
	}
	f.out = out
}

// appendFused appends in to out as one op of the given lane count. The
// fusers build their output in a local slice and store it back once per run:
// appending to f.out itself reloads and stores its header per op.
func appendFused(out []Instr, in *Instr, lanes int) []Instr {
	op := *in
	op.Lanes = uint8(lanes)
	if in.Class.IsMem() {
		op.Size = uint16(lanes * (ElemBits / 8))
	}
	return append(out, op)
}
