package isa

// referenceFuser is the fuser as it stood before it was made allocation-free:
// every run is copied through buf, and fuseRun builds a fresh PC->slot map and
// per-slot instruction lists. fetch, fill, fuseWithinBodies, fuseRun and emit
// are kept verbatim; it is the oracle the differential and fuzz tests compare
// Fuser against, instruction for instruction.
type referenceFuser struct {
	cfg   FuserConfig
	s     Stream
	src   []Instr // devirtualized slice source when s is a *SliceStream
	spos  int
	out   []Instr // fused ops ready for delivery
	opos  int
	buf   []Instr // lookahead: buffered raw micro-ops
	eof   bool
	stats FuserStats
}

// newReferenceFuser mirrors NewFuser, defaults included.
func newReferenceFuser(s Stream, cfg FuserConfig) *referenceFuser {
	if cfg.WidthBits < ElemBits {
		cfg.WidthBits = ElemBits
	}
	if cfg.MinRun < 1 {
		cfg.MinRun = 1
	}
	if cfg.MaxBlock <= 0 {
		cfg.MaxBlock = 4096
	}
	f := &referenceFuser{cfg: cfg, s: s}
	if ss, ok := s.(*SliceStream); ok {
		// Pull straight from the slice: one dynamic dispatch and a 32-byte
		// return copy per instruction is real money on multi-million
		// instruction windows.
		f.src, f.spos = ss.Instrs, ss.pos
	}
	return f
}

// Stats returns the fusion counters accumulated so far.
func (f *referenceFuser) Stats() FuserStats { return f.stats }

// MaxLanes returns the lane capacity of the configured width.
func (f *referenceFuser) MaxLanes() int { return f.cfg.WidthBits / ElemBits }

// Next implements Stream.
func (f *referenceFuser) Next() (Instr, bool) {
	for f.opos >= len(f.out) {
		if !f.fill() {
			return Instr{}, false
		}
	}
	in := f.out[f.opos]
	f.opos++
	return in, true
}

// fetch pulls one raw instruction into buf; returns false at EOF.
func (f *referenceFuser) fetch() bool {
	if f.eof {
		return false
	}
	if f.src != nil {
		if f.spos >= len(f.src) {
			f.eof = true
			return false
		}
		f.stats.In++
		f.buf = append(f.buf, f.src[f.spos])
		f.spos++
		return true
	}
	in, ok := f.s.Next()
	if !ok {
		f.eof = true
		return false
	}
	f.stats.In++
	f.buf = append(f.buf, in)
	return true
}

// fill processes the next basic-block run from buf into out.
func (f *referenceFuser) fill() bool {
	f.out = f.out[:0]
	f.opos = 0
	if len(f.buf) == 0 && !f.fetch() {
		return false
	}

	bb := f.buf[0].BB
	firstPC := f.buf[0].PC

	// Gather whole executions ("bodies") of this basic block while it
	// repeats back-to-back. bodyStarts[i] is the buf index where body i
	// begins. A body begins whenever firstPC reappears.
	bodyStarts := []int{0}
	i := 1
	maxNeed := f.MaxLanes() * f.cfg.MinRun * 4 // generous lookahead bound
	for {
		if i >= len(f.buf) {
			if len(f.buf) >= f.cfg.MaxBlock || !f.fetch() {
				break
			}
		}
		in := f.buf[i]
		if in.BB != bb {
			break
		}
		if in.PC == firstPC {
			if len(bodyStarts) >= maxNeed {
				break
			}
			bodyStarts = append(bodyStarts, i)
		}
		i++
	}
	runEnd := i
	if runEnd > len(f.buf) {
		runEnd = len(f.buf)
	}
	f.stats.Blocks++

	run := f.buf[:runEnd]
	nBodies := len(bodyStarts)

	if nBodies >= f.cfg.MinRun {
		f.fuseRun(run, bodyStarts)
	} else {
		f.fuseWithinBodies(run, bodyStarts)
	}

	// Shift the consumed prefix out of buf.
	f.buf = append(f.buf[:0], f.buf[runEnd:]...)
	return len(f.out) > 0
}

// fuseWithinBodies fuses only adjacent same-PC micro-ops (the scalarized
// lanes of one traced vector instruction), capped at the traced width. This
// is the regime for blocks that do not repeat often enough.
func (f *referenceFuser) fuseWithinBodies(run []Instr, bodyStarts []int) {
	cap128 := TracedWidthBits / ElemBits
	maxLanes := f.MaxLanes()
	if maxLanes > cap128 {
		maxLanes = cap128
	}
	for i := 0; i < len(run); {
		in := run[i]
		if !in.Vectorizable || maxLanes == 1 {
			f.emit(in, 1)
			i++
			continue
		}
		j := i + 1
		for j < len(run) && j-i < maxLanes && run[j].PC == in.PC && run[j].Vectorizable {
			j++
		}
		f.emit(in, j-i)
		i = j
	}
}

// fuseRun performs cross-iteration fusion over a run of nBodies executions
// of one basic block: for each static instruction, dynamic instances from
// consecutive bodies are folded together up to the configured lane count.
// Every fused op keeps the address and dependencies of its group's first
// instance (the lanes are assumed unit-stride from there, as the decoder
// produced them). Non-vectorizable micro-ops (branches, address arithmetic,
// pointer chases) are emitted one per instance, preserving their own
// addresses and producer distances.
func (f *referenceFuser) fuseRun(run []Instr, bodyStarts []int) {
	maxLanes := f.MaxLanes()

	// Slot order = encounter order of static PCs in the first body.
	end0 := len(run)
	if len(bodyStarts) > 1 {
		end0 = bodyStarts[1]
	}
	slotOf := map[uint32]int{}
	var order []uint32
	for _, in := range run[:end0] {
		if _, ok := slotOf[in.PC]; !ok {
			slotOf[in.PC] = len(order)
			order = append(order, in.PC)
		}
	}
	// Gather instances per slot across the whole run. Instructions whose PC
	// did not appear in the first body (ragged bodies) get new slots.
	instances := make([][]Instr, len(order))
	for _, in := range run {
		s, ok := slotOf[in.PC]
		if !ok {
			s = len(instances)
			slotOf[in.PC] = s
			order = append(order, in.PC)
			instances = append(instances, nil)
		}
		instances[s] = append(instances[s], in)
	}

	for s := range instances {
		ins := instances[s]
		if len(ins) == 0 {
			continue
		}
		if !ins[0].Vectorizable {
			for _, in := range ins {
				f.emit(in, 1)
			}
			continue
		}
		for i := 0; i < len(ins); i += maxLanes {
			lanes := maxLanes
			if i+lanes > len(ins) {
				lanes = len(ins) - i
			}
			f.emit(ins[i], lanes)
		}
	}
}

// emit writes one (possibly fused) op to the output buffer.
func (f *referenceFuser) emit(in Instr, lanes int) {
	out := in
	out.Lanes = uint8(lanes)
	if in.Class.IsMem() {
		out.Size = uint16(lanes * (ElemBits / 8))
	}
	f.out = append(f.out, out)
	f.stats.Out++
	f.stats.Fused += int64(lanes - 1)
}
