package node

import (
	"slices"
	"sync"

	"musa/internal/apps"
	"musa/internal/cache"
	"musa/internal/isa"
)

// coldChunk is how many scalar micro-ops a cold pass, or a sample fuse from a
// checkpoint, reads from the generator at a time (256 KiB of isa.Instr, small
// enough for the two chunk buffers to stay in a client's scratch between
// runs; no slower than 64 Ki micro-ops, DESIGN §15). A chunk ends where the basic block
// changes, so one is shorter by the block it stops short of, or longer when
// a single block outgrows it.
const coldChunk = 1 << 13

// WidthWalk asks a cold pass for the hit-rate tables of Configs, every one at
// vector width VectorBits.
type WidthWalk struct {
	VectorBits int
	Configs    []Config
}

// WidthTables is what a cold pass resolved at one width: the sample half of
// the fused trace (WarmOps nil) and the hit-rate table of each configuration,
// in order.
type WidthTables struct {
	Fused  *FusedTrace
	Tables []HitRateTable
}

// PassStage names a stage of one width's share of a cold pass.
type PassStage int

const (
	// StageWalk is a width's whole share of the pass: fusing the warm window
	// chunk by chunk straight into its caches, then fusing the sample window
	// chunk by chunk and walking it.
	StageWalk PassStage = iota
	// StageFuse is the width's sample fuse, inside its StageWalk: from its
	// first sample chunk to its last, so the first width's includes the
	// generation of the later chunks, as another width's includes waiting
	// for them.
	StageFuse
)

// ColdPass is the cold front end of one application at one fidelity and
// seed: everything a sweep builds before its first timing replay when no
// hit-rate table is at hand. The pass reads the warm window and then the
// sample window from the generator a chunk at a time; every width fuses
// each warm chunk with its own isa.Fuser and walks the fused memory ops
// straight into its configurations' caches (one cache.SharedL1 per width),
// then fuses each sample chunk into its sample half, which it walks on the
// warm caches to its tables. Neither window is kept: what the pass leaves
// of them is the generator's Checkpoint at their boundary. Widths after the
// first fuse and walk on goroutines of their own over the same read-only
// chunk while the generator fills the next one.
//
// Each table, and each fused sample half, equals the one AnnotateTrace and
// FuseScalarTrace build from the whole window (BuildScalarTrace): a fuser run
// never spans a change of basic block, so cutting the stream there changes
// no fused op, and the boundary between the windows is where the reference
// cuts too.
type ColdPass struct {
	App            *apps.Profile
	Sample, Warmup int64 // resolved by apps.EffectiveFidelity
	Seed           uint64
	Widths         []WidthWalk // at least one
	// Scratch supplies the pass's storage and gets back what the pass is
	// done with: its generator, its two chunk buffers and each width's fuser
	// and hierarchies return when the pass ends, to be reset for the next
	// pass (the hierarchies for one over the same configurations). The fused
	// sample halves and the tables' level columns are drawn from it too, but
	// are the caller's to release. A pass with no Scratch makes its own.
	Scratch *Scratch
	// Stage, if set, is called on the goroutine running width i's share of
	// the pass as each of its stages begins; the function it returns is
	// called as the stage ends.
	Stage func(i int, s PassStage) (end func())
}

// Run runs the pass. It returns the generator's checkpoint at the start of
// the sample window (Scratch.FuseSample streams the window from it again)
// and what it resolved per width, in Widths order.
func (p ColdPass) Run() (*apps.Checkpoint, []WidthTables) { return p.run(coldChunk) }

// run is Run with the chunk length a parameter, so tests can force cuts.
func (p ColdPass) run(chunk int) (*apps.Checkpoint, []WidthTables) {
	if p.Scratch == nil {
		p.Scratch = NewScratch()
	}
	sample, warmup := apps.EffectiveFidelity(p.Sample, p.Warmup)
	gen := p.Scratch.stream()
	gen.Reset(p.App, p.Seed)
	walks := make([]*widthPass, len(p.Widths))
	for i, w := range p.Widths {
		walks[i] = &widthPass{vec: w.VectorBits, fu: p.Scratch.fuser(w.VectorBits)}
		walks[i].walk, walks[i].drawn = p.Scratch.walk(w.Configs)
	}
	out := make([]WidthTables, len(walks))

	// Widths after the first take chunks over a channel each and mark them
	// read on the chunk's WaitGroup.
	var wg sync.WaitGroup
	feeds := make([]chan passChunk, len(walks))
	for i := 1; i < len(walks); i++ {
		feeds[i] = make(chan passChunk, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			end := p.stage(i, StageWalk)
			for c := range feeds[i] {
				walks[i].read(p, i, sample, c)
				c.read.Done()
			}
			out[i] = walks[i].tables(p.Scratch)
			end()
		}()
	}

	end := p.stage(0, StageWalk)
	r := p.Scratch.chunkReader(gen, warmup, chunk, max(warmup, sample))
	stream := func(inSample bool) {
		for {
			instrs, read, ok := r.next()
			if !ok {
				return
			}
			read.Add(len(walks) - 1)
			c := passChunk{instrs, inSample, read}
			for _, feed := range feeds[1:] {
				feed <- c
			}
			walks[0].read(p, 0, sample, c)
		}
	}
	stream(false)
	cp := gen.Checkpoint()
	r.left = sample
	stream(true)
	for _, feed := range feeds[1:] {
		close(feed)
	}
	out[0] = walks[0].tables(p.Scratch)
	end()
	wg.Wait()
	p.Scratch.releaseReader(r)
	for _, w := range walks {
		put(p.Scratch, &p.Scratch.walks, keptWalk{w.walk, w.drawn})
	}
	return cp, out
}

func (p ColdPass) stage(i int, s PassStage) func() {
	if p.Stage == nil {
		return func() {}
	}
	return p.Stage(i, s)
}

// passChunk is one chunk of a cold pass handed to a width's goroutine,
// whether it is of the sample window, and the WaitGroup it marks the chunk
// read on.
type passChunk struct {
	instrs []isa.Instr
	sample bool
	read   *sync.WaitGroup
}

// widthPass is one width's share of a cold pass: its fuser, whose scratch
// lasts the whole pass, the caches of its configurations (drawn: taken back
// from the pass's scratch) and, once the sample window begins, its sample
// fuse and the end of its StageFuse.
type widthPass struct {
	vec     int
	fu      *isa.Fuser
	walk    *cache.SharedL1
	drawn   bool
	half    sampleFuse
	endFuse func() // nil until the first sample chunk
}

// read takes one chunk of the pass: a warm chunk is fused and its memory ops
// walked, a sample chunk fused into the width's half (the first one resets
// the fuser and starts the half).
func (w *widthPass) read(p ColdPass, i int, sample int64, c passChunk) {
	if !c.sample {
		w.warm(c.instrs)
		return
	}
	if w.endFuse == nil {
		w.endFuse = p.stage(i, StageFuse)
		w.fu.Reset(isa.DefaultFuserConfig(w.vec))
		w.half.begin(p.Scratch.half(sample), w.fu, p.App, p.Seed, sample)
	}
	w.half.feed(c.instrs)
}

// warm fuses one chunk of the warm window and walks its memory ops.
func (w *widthPass) warm(chunk []isa.Instr) {
	w.fu.Feed(chunk)
	for {
		run, ok := w.fu.NextRun()
		if !ok {
			return
		}
		for i := range run {
			if in := &run[i]; in.Class.IsMem() {
				w.walk.Access(in.Addr, int(in.Size), in.Class == isa.Store)
			}
		}
	}
}

// tables ends the width's sample fuse, hands its fuser back to s and walks
// the sample half on the warm caches.
func (w *widthPass) tables(s *Scratch) WidthTables {
	ft := w.half.end()
	w.endFuse()
	s.releaseFuser(w.fu)
	return WidthTables{Fused: ft, Tables: s.sampleTables(w.walk, ft)}
}

// chunkReader reads a window from a generator a chunk at a time, into two
// buffers in turn: the readers of one chunk work on it while the generator
// fills the other. A chunk is cut where the basic block changes; the block
// it stops short of opens the next chunk. The window's last chunk ends where
// the window does, mid-block or not, and setting left then reads the next
// window from there. A buffer is allocated at the length its chunk can
// reach — size, or the window that is left when that is shorter — and one
// given to the reader is used up to that length.
type chunkReader struct {
	gen  *apps.DetailedStream
	left int64 // micro-ops of the window not yet read from gen
	size int   // a chunk's length before any block outgrows it
	// bufs is the two buffers' storage at its full capacity; nil until a
	// chunk needs it.
	bufs [2][]isa.Instr
	// read counts, per buffer, the readers still working on the chunk in it.
	read [2]sync.WaitGroup
	cur  int
	tail []isa.Instr // read, not yet handed out: the start of a block
}

// chunkReader returns a reader of gen's next n micro-ops in chunks of size
// on released chunk buffers, drawn for windows of up to longest micro-ops.
func (s *Scratch) chunkReader(gen *apps.DetailedStream, n int64, size int, longest int64) *chunkReader {
	r := &chunkReader{gen: gen, left: n, size: size}
	for i := range r.bufs {
		r.bufs[i], _ = take(s, &s.chunks, min(int64(size), longest), nil)
	}
	return r
}

// releaseReader hands r's generator and chunk buffers back to s, once no reader
// works on a chunk.
func (s *Scratch) releaseReader(r *chunkReader) {
	put(s, &s.streams, r.gen)
	for _, b := range r.bufs {
		if b != nil { // a buffer no chunk filled
			put(s, &s.chunks, b[:0])
		}
	}
}

// next returns the next chunk and the WaitGroup of its buffer, which the
// buffer is not refilled before; false once the window is handed out.
func (r *chunkReader) next() ([]isa.Instr, *sync.WaitGroup, bool) {
	if r.left == 0 && len(r.tail) == 0 {
		return nil, nil, false
	}
	r.cur ^= 1
	r.read[r.cur].Wait()
	want := int(min(int64(r.size), r.left+int64(len(r.tail))))
	if cap(r.bufs[r.cur]) < want {
		r.bufs[r.cur] = make([]isa.Instr, 0, want)
	}
	b := append(r.bufs[r.cur][:0:want], r.tail...)
	r.tail = nil
	for {
		n := int(min(int64(cap(b)-len(b)), r.left))
		r.gen.Read(b[len(b) : len(b)+n])
		b = b[:len(b)+n]
		r.left -= int64(n)
		if r.left == 0 {
			break
		}
		if cut := lastBlockStart(b); cut > 0 {
			r.tail, b = b[cut:], b[:cut]
			break
		}
		b = slices.Grow(b, len(b)) // one block fills the buffer
		r.bufs[r.cur] = b
	}
	return b, &r.read[r.cur], true
}

// lastBlockStart returns the index of the first micro-op of the last basic
// block in b, 0 when b holds one block.
func lastBlockStart(b []isa.Instr) int {
	for i := len(b) - 1; i > 0; i-- {
		if b[i].BB != b[i-1].BB {
			return i
		}
	}
	return 0
}
