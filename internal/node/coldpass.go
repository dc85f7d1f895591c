package node

import (
	"slices"
	"sync"

	"musa/internal/apps"
	"musa/internal/cache"
	"musa/internal/isa"
)

// coldChunk is how many scalar micro-ops of the warm window a cold pass reads
// from the generator at a time (2 MiB of isa.Instr). A chunk ends where the
// basic block changes, so one is shorter by the block it stops short of, or
// longer when a single block outgrows it.
const coldChunk = 1 << 16

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
	// and walking it.
	StageWalk PassStage = iota
	// StageFuse is the width's sample fuse, inside its StageWalk.
	StageFuse
)

// ColdPass is the cold front end of one application at one fidelity and
// seed: everything a sweep builds before its first timing replay when no
// hit-rate table is at hand. The pass reads the warm window from the
// generator a chunk at a time; every width fuses each chunk with its own
// isa.Fuser and walks the fused memory ops straight into its configurations'
// caches (one cache.SharedL1 per width), so the warm window and its fused
// memory ops are walked and never kept. Widths after the first walk on
// goroutines of their own over the same read-only chunk while the generator
// fills the next one. The sample window is then generated whole (or taken
// from Window), and each width fuses it and walks it to its tables.
//
// Each table, and each fused sample half, equals the one WalkCaches and
// FuseSample build from the whole window (FuseScalarTrace of
// BuildScalarTrace): a fuser run never spans a change of basic block, so
// cutting the stream there changes no fused op.
type ColdPass struct {
	App            *apps.Profile
	Sample, Warmup int64 // resolved by apps.EffectiveFidelity
	Seed           uint64
	// Window, if it holds instructions, is the application's sample window
	// at this fidelity and seed: the pass uses it as it is and stops the
	// generator at the end of the warm window.
	Window ScalarTrace
	Widths []WidthWalk // at least one
	// Scratch, if set, supplies the pass's storage and gets back what the
	// pass is done with: its two chunk buffers and each width's hierarchies
	// return when the pass ends, to be reset for the next pass over the same
	// configurations. The generated sample window and the fused sample halves
	// are drawn from it too, but are the caller's to release.
	Scratch *Scratch
	// Stage, if set, is called on the goroutine running width i's share of
	// the pass as each of its stages begins; the function it returns is
	// called as the stage ends.
	Stage func(i int, s PassStage) (end func())
}

// Run runs the pass. It returns the sample window (Window, or the one it
// generated, which shares no memory with the warm window) and what it
// resolved per width, in Widths order.
func (p ColdPass) Run() (ScalarTrace, []WidthTables) { return p.run(coldChunk) }

// run is Run with the chunk length a parameter, so tests can force cuts.
func (p ColdPass) run(chunk int) (ScalarTrace, []WidthTables) {
	sample, warmup := apps.EffectiveFidelity(p.Sample, p.Warmup)
	gen := apps.NewDetailedStream(p.App, p.Seed)
	walks := make([]*widthPass, len(p.Widths))
	for i, w := range p.Widths {
		walks[i] = &widthPass{
			vec:  w.VectorBits,
			fu:   isa.NewFuser(isa.NewSliceStream(nil), isa.DefaultFuserConfig(w.VectorBits)),
			walk: p.Scratch.walk(w.Configs),
		}
	}
	out := make([]WidthTables, len(walks))

	// Widths after the first take chunks over a channel each and mark them
	// walked on the chunk's WaitGroup; st is written before the channels
	// close, so a width that sees its channel closed reads it safely.
	var st ScalarTrace
	var wg sync.WaitGroup
	feeds := make([]chan passChunk, len(walks))
	for i := 1; i < len(walks); i++ {
		feeds[i] = make(chan passChunk, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			end := p.stage(i, StageWalk)
			for c := range feeds[i] {
				walks[i].warm(c.instrs)
				c.walked.Done()
			}
			out[i] = walks[i].sample(p, i, st)
			end()
		}()
	}

	end := p.stage(0, StageWalk)
	r := chunkReader{gen: gen, left: warmup, size: chunk, bufs: p.Scratch.chunkBuffers()}
	for {
		instrs, walked, ok := r.next()
		if !ok {
			break
		}
		walked.Add(len(walks) - 1)
		for _, feed := range feeds[1:] {
			feed <- passChunk{instrs, walked}
		}
		walks[0].warm(instrs)
	}
	st = p.window(gen, sample)
	for _, feed := range feeds[1:] {
		close(feed)
	}
	out[0] = walks[0].sample(p, 0, st)
	end()
	wg.Wait()
	p.Scratch.releaseChunks(r.bufs)
	for _, w := range walks {
		p.Scratch.releaseWalk(w.walk)
	}
	return st, out
}

// window returns the pass's sample window: Window, or the generator's next
// sample micro-ops.
func (p ColdPass) window(gen *apps.DetailedStream, sample int64) ScalarTrace {
	if p.Window.Instrs != nil {
		return p.Window
	}
	return p.Scratch.generate(gen, sample)
}

func (p ColdPass) stage(i int, s PassStage) func() {
	if p.Stage == nil {
		return func() {}
	}
	return p.Stage(i, s)
}

// passChunk is one chunk of the warm window handed to a width's goroutine,
// and the WaitGroup it marks the chunk walked on.
type passChunk struct {
	instrs []isa.Instr
	walked *sync.WaitGroup
}

// widthPass is one width's share of a cold pass: its fuser, whose scratch
// lasts the whole pass, and the caches of its configurations.
type widthPass struct {
	vec  int
	fu   *isa.Fuser
	walk *cache.SharedL1
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

// sample fuses the sample window and walks it on the warm caches.
func (w *widthPass) sample(p ColdPass, i int, st ScalarTrace) WidthTables {
	end := p.stage(i, StageFuse)
	ft := p.Scratch.FuseSample(st, p.App, w.vec, p.Seed)
	end()
	return WidthTables{Fused: ft, Tables: sampleTables(w.walk, ft)}
}

// chunkReader reads the warm window from a generator a chunk at a time, into
// two buffers in turn: the widths walk one chunk while the generator fills
// the other. A chunk is cut where the basic block changes; the block it
// stops short of opens the next chunk. A buffer is allocated at the length
// its chunk can reach — size, or the warm window that is left when that is
// shorter — and one given to the reader is used up to that length.
type chunkReader struct {
	gen  *apps.DetailedStream
	left int64 // warm micro-ops not yet read from gen
	size int   // a chunk's length before any block outgrows it
	// bufs is the two buffers' storage at its full capacity; nil until a
	// chunk needs it.
	bufs [2][]isa.Instr
	// walked counts, per buffer, the widths still walking the chunk in it.
	walked [2]sync.WaitGroup
	cur    int
	tail   []isa.Instr // read, not yet handed out: the start of a block
}

// next returns the next chunk and the WaitGroup of its buffer, which the
// buffer is not refilled before; false once the warm window is handed out.
func (r *chunkReader) next() ([]isa.Instr, *sync.WaitGroup, bool) {
	if r.left == 0 && len(r.tail) == 0 {
		return nil, nil, false
	}
	r.cur ^= 1
	r.walked[r.cur].Wait()
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
	return b, &r.walked[r.cur], true
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
