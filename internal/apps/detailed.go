package apps

import (
	"musa/internal/cache"
	"musa/internal/isa"
	"musa/internal/xrand"
)

// DetailedStream synthesizes an unbounded instruction-level trace of the
// application's compute behavior, substituting for the DynamoRIO sampling of
// the paper (DESIGN.md §2). The stream alternates two block flavors:
//
//   - vectorizable loops: a fixed basic-block body (load / FP ops / index
//     arithmetic / backward branch) repeated for a trip count drawn around
//     Profile.Vector.TripCount, with all FP and memory body ops carrying
//     fusion markers. The fraction of work emitted in these loops follows
//     Vector.VecFrac.
//   - scalar sections: mixed-class blocks without fusion markers.
//
// Memory addresses come from the application's locality profile, so cache
// behavior downstream reproduces the Fig. 1 characterization. Loop-carried
// dependence chains are inserted with probability Dep.ChainProb, setting the
// ILP the out-of-order window can extract.
//
// The stream emits scalar micro-ops (lane = 1), exactly what the tracing
// pipeline produces after vector decode; pipe it through isa.NewFuser to
// simulate a given SIMD width. Wrap with isa.LimitStream to bound length.
type DetailedStream struct {
	p    *Profile
	rng  *xrand.RNG
	addr *cache.AddressGen

	buf  []isa.Instr
	pos  int
	bbID uint32

	// chaseRegion is the locality region index pointer-chase loops walk
	// (-1: whole profile).
	chaseRegion int

	// pVec is the probability of emitting a vector block, derived from
	// Vector.VecFrac (a work share) by weighting with the expected block
	// lengths, so the share of micro-ops inside vector loops matches
	// VecFrac.
	pVec float64

	// Pre-normalized class weights for scalar sections.
	scalarPick *xrand.Discrete
	scalarCls  []isa.Class
}

// NewDetailedStream builds the generator; deterministic in seed.
func NewDetailedStream(p *Profile, seed uint64) *DetailedStream {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	rng := xrand.New(seed)
	classes := []isa.Class{
		isa.Load, isa.Store, isa.FPAdd, isa.FPMul, isa.FPFMA, isa.FPDiv,
		isa.IntALU, isa.IntMul, isa.Branch,
	}
	weights := []float64{
		p.Mix.Load, p.Mix.Store, p.Mix.FPAdd, p.Mix.FPMul, p.Mix.FPFMA,
		p.Mix.FPDiv, p.Mix.IntALU, p.Mix.IntMul, p.Mix.Branch,
	}
	// Expected block lengths: vector body ~6.55 ops per trip, scalar ~12.5.
	vecLen := float64(p.Vector.TripCount) * 6.55
	scaLen := 12.5
	vf := p.Vector.VecFrac
	pVec := vf * scaLen / (vecLen*(1-vf) + vf*scaLen)
	return &DetailedStream{
		p:           p,
		rng:         rng,
		addr:        cache.NewAddressGen(p.Locality, rng.Split()),
		chaseRegion: p.Locality.RegionIndex(p.ChaseRegion),
		pVec:        pVec,
		scalarPick:  xrand.NewDiscrete(weights),
		scalarCls:   classes,
	}
}

// Next implements isa.Stream.
func (s *DetailedStream) Next() (isa.Instr, bool) {
	for s.pos >= len(s.buf) {
		s.fill()
	}
	in := s.buf[s.pos]
	s.pos++
	return in, true
}

// Read fills dst with the stream's next len(dst) micro-ops — the same
// sequence len(dst) calls of Next return — copying each generated block in
// one piece instead of one micro-op per call.
func (s *DetailedStream) Read(dst []isa.Instr) {
	for len(dst) > 0 {
		for s.pos >= len(s.buf) {
			s.fill()
		}
		k := copy(dst, s.buf[s.pos:])
		s.pos += k
		dst = dst[k:]
	}
}

// Skip advances the stream by n micro-ops without handing them out. The
// blocks are still generated — their random draws are the stream — but no
// instruction is copied to a caller.
func (s *DetailedStream) Skip(n int64) {
	for n > 0 {
		for s.pos >= len(s.buf) {
			s.fill()
		}
		k := min(n, int64(len(s.buf)-s.pos))
		s.pos += int(k)
		n -= k
	}
}

// fill generates the next block of instructions into buf.
func (s *DetailedStream) fill() {
	s.buf = s.buf[:0]
	s.pos = 0
	s.bbID++
	switch {
	case s.rng.Bernoulli(s.p.Dep.LoadChainProb):
		s.chaseLoop()
	case s.rng.Bernoulli(s.pVec):
		s.vectorLoop()
	default:
		s.scalarSection()
	}
}

// chaseLoop emits a pointer-chasing loop: each iteration's load depends on
// the previous iteration's load (indirect indexing through the working
// set), so the cache level serving those loads shows up serially in the
// execution time. Such loops cannot vectorize; each iteration gets its own
// basic-block id so the fuser replays them strictly in order.
func (s *DetailedStream) chaseLoop() {
	t := 4 + s.rng.Geometric(1.0/24)
	const bodyLen = 4
	for i := 0; i < t; i++ {
		bb := s.bbID
		pcBase := bb * 64
		var a uint64
		if s.chaseRegion >= 0 {
			a = s.addr.NextIn(s.chaseRegion)
		} else {
			a, _ = s.nextAddr()
		}
		dep := int32(0)
		if i > 0 {
			dep = bodyLen // the previous iteration's load
		}
		s.emit(isa.Instr{PC: pcBase + 0, BB: bb, Class: isa.Load, Addr: a, Size: 8, Dep1: dep, Lanes: 1})
		s.emit(isa.Instr{PC: pcBase + 1, BB: bb, Class: isa.IntALU, Dep1: 1, Lanes: 1})
		s.emit(isa.Instr{PC: pcBase + 2, BB: bb, Class: isa.FPAdd, Dep1: 2, Lanes: 1})
		s.emit(isa.Instr{PC: pcBase + 3, BB: bb, Class: isa.Branch, Dep1: 1, Lanes: 1})
		s.bbID++
	}
}

// nextAddr draws a memory access from the locality profile.
func (s *DetailedStream) nextAddr() (uint64, bool) {
	return s.addr.Next()
}

// vectorLoop emits trip executions of one vectorizable loop body. The body
// shape mirrors a stride-1 stencil/axpy kernel: two loads, two or three FP
// ops, an optional store, index update and backward branch.
func (s *DetailedStream) vectorLoop() {
	trip := s.p.Vector.TripCount
	// Spread trip counts geometrically around the profile value, at least 1.
	t := 1 + s.rng.Geometric(1/float64(trip))
	bb := s.bbID
	pcBase := bb * 64

	// Choose FP op classes for this loop deterministically from the rng.
	fp1 := []isa.Class{isa.FPMul, isa.FPFMA, isa.FPAdd}[s.rng.Intn(3)]
	fp2 := []isa.Class{isa.FPAdd, isa.FPMul}[s.rng.Intn(2)]
	hasStore := s.rng.Bernoulli(0.55)
	chained := s.rng.Bernoulli(s.p.Dep.ChainProb)

	// Body length in micro-ops (for chain distance computation).
	bodyLen := int32(6)
	if hasStore {
		bodyLen = 7
	}

	for i := 0; i < t; i++ {
		a1, _ := s.nextAddr()
		a2, _ := s.nextAddr()
		s.emit(isa.Instr{PC: pcBase + 0, BB: bb, Class: isa.Load, Addr: a1, Size: 8, Lanes: 1, Vectorizable: true})
		s.emit(isa.Instr{PC: pcBase + 1, BB: bb, Class: isa.Load, Addr: a2, Size: 8, Lanes: 1, Vectorizable: true})
		dep2 := int32(0)
		if chained && i > 0 {
			dep2 = bodyLen // accumulator from previous iteration
		}
		s.emit(isa.Instr{PC: pcBase + 2, BB: bb, Class: fp1, Dep1: 1, Dep2: 2, Lanes: 1, Vectorizable: true})
		s.emit(isa.Instr{PC: pcBase + 3, BB: bb, Class: fp2, Dep1: 1, Dep2: dep2, Lanes: 1, Vectorizable: true})
		if hasStore {
			as, _ := s.nextAddr()
			s.emit(isa.Instr{PC: pcBase + 4, BB: bb, Class: isa.Store, Addr: as, Size: 8, Dep1: 1, Lanes: 1, Vectorizable: true})
		}
		s.emit(isa.Instr{PC: pcBase + 5, BB: bb, Class: isa.IntALU, Lanes: 1})
		s.emit(isa.Instr{PC: pcBase + 6, BB: bb, Class: isa.Branch, Dep1: 1, Lanes: 1})
	}
}

// scalarSection emits one short non-vectorizable block (control code,
// gather/scatter-style irregular work).
func (s *DetailedStream) scalarSection() {
	bb := s.bbID
	pcBase := bb * 64
	n := 8 + s.rng.Intn(10)
	for i := 0; i < n; i++ {
		cls := s.scalarCls[s.scalarPick.Sample(s.rng)]
		in := isa.Instr{PC: pcBase + uint32(i), BB: bb, Class: cls, Lanes: 1}
		switch {
		case cls.IsMem():
			a, _ := s.nextAddr()
			in.Addr = a
			in.Size = 8
		case cls.IsFP():
			in.Dep1 = 1 + int32(s.rng.Intn(3))
			if s.rng.Bernoulli(s.p.Dep.ChainProb) {
				in.Dep2 = 4 + int32(s.rng.Intn(8))
			}
		case cls == isa.Branch:
			in.Dep1 = 1
		}
		s.emit(in)
	}
}

func (s *DetailedStream) emit(in isa.Instr) { s.buf = append(s.buf, in) }

// SampleSize is the default detailed-simulation sample length (scalar
// micro-ops). MUSA traces one iteration of one rank; this sample plays the
// same role and is long enough for cache and IPC statistics to stabilize.
const SampleSize = 300000

// EffectiveFidelity resolves the sample-size defaulting rule in one place:
// a non-positive sample means SampleSize, a non-positive warmup means 2x
// the (resolved) sample. node.BuildAnnotation applies it before simulating,
// dse's artifact keys hash it, and the fleet wire materializes it — all
// three must agree byte for byte, or warm artifact lookups would address
// different fidelity than a cold build uses.
func EffectiveFidelity(sample, warmup int64) (int64, int64) {
	if sample <= 0 {
		sample = SampleSize
	}
	if warmup <= 0 {
		warmup = 2 * sample
	}
	return sample, warmup
}
