package node

import (
	"slices"
	"sync"

	"musa/internal/apps"
	"musa/internal/cache"
	"musa/internal/isa"
)

// Scratch is storage that a sequence of front-end builds hands on: sample
// windows, fused sample halves, a cold pass's chunk buffers and its cache
// hierarchies (up to maxScratchWalkBytes of them). A column released to it is handed to the next build of the
// same kind, which overwrites it completely — a window or a half is
// regenerated element by element, a hierarchy is reset in place
// (cache.SharedL1.Reset) — so a build on recycled storage equals a build on
// new storage byte for byte. Only what has no reader left may be released;
// a released column is the next build's. The zero Scratch is empty; a nil
// *Scratch recycles nothing, and every build through it allocates. Safe for
// concurrent use.
type Scratch struct {
	mu        sync.Mutex
	windows   [][]isa.Instr
	halves    []*FusedTrace
	chunks    [][]isa.Instr
	walks     []*cache.SharedL1
	walkBytes int64 // the cache arrays of walks
	stats     ScratchStats
}

// maxScratchWalkBytes bounds the cache arrays a Scratch keeps between
// passes. A sweep of the 64-core slice walks 0.6 MB of them per width and
// keeps them all; a pass over the whole Table I grid walks 25 MB per width,
// 24 of them the 1-core L3 partitions, which are let go at the end of the
// pass instead of being held through the timing replays that follow: what a
// full-grid sweep holds live sets its peak RSS.
const maxScratchWalkBytes = 16 << 20

// ScratchStats counts, per kind of column, the builds a Scratch served from
// released storage (Reused) and those that allocated it (New).
type ScratchStats struct {
	Windows, Halves, Chunks, Hierarchies ScratchCount
}

// ScratchCount is one kind's reused and newly allocated builds.
type ScratchCount struct {
	Reused, New int64
}

func (c *ScratchCount) count(reused bool) {
	if reused {
		c.Reused++
	} else {
		c.New++
	}
}

// Stats returns what the scratch has served so far (zero for a nil one).
func (s *Scratch) Stats() ScratchStats {
	if s == nil {
		return ScratchStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// takeLast pops the last element of *list, or returns the zero value.
func takeLast[T any](list *[]T) (T, bool) {
	var v T
	n := len(*list)
	if n == 0 {
		return v, false
	}
	v, (*list)[n-1] = (*list)[n-1], v
	*list = (*list)[:n-1]
	return v, true
}

// SampleWindow is BuildSampleWindow into a released window's storage.
func (s *Scratch) SampleWindow(app *apps.Profile, sampleInstrs, warmupInstrs int64, seed uint64) ScalarTrace {
	sampleInstrs, warmupInstrs = apps.EffectiveFidelity(sampleInstrs, warmupInstrs)
	gen := apps.NewDetailedStream(app, seed)
	gen.Skip(warmupInstrs)
	return s.generate(gen, sampleInstrs)
}

// generate materialises the next n micro-ops of gen as a sample window, in a
// released window's storage when one is long enough (a short one is let go).
func (s *Scratch) generate(gen *apps.DetailedStream, n int64) ScalarTrace {
	var instrs []isa.Instr
	if s != nil {
		s.mu.Lock()
		w, ok := takeLast(&s.windows)
		if ok && int64(cap(w)) >= n {
			instrs = w[:n]
		}
		s.stats.Windows.count(instrs != nil)
		s.mu.Unlock()
	}
	if instrs == nil {
		instrs = make([]isa.Instr, n)
	}
	gen.Read(instrs)
	return ScalarTrace{Instrs: instrs}
}

// ReleaseWindow hands a sample window's storage to the next window build.
// Nothing may read st afterwards: not a front, not a fused build.
func (s *Scratch) ReleaseWindow(st ScalarTrace) {
	if s == nil || st.Instrs == nil {
		return
	}
	s.mu.Lock()
	s.windows = append(s.windows, st.Instrs[:0])
	s.mu.Unlock()
}

// FuseSample is FuseSample into a released half's storage.
func (s *Scratch) FuseSample(st ScalarTrace, app *apps.Profile, vectorBits int, seed uint64) *FusedTrace {
	var ft *FusedTrace
	if s != nil {
		s.mu.Lock()
		var ok bool
		ft, ok = takeLast(&s.halves)
		s.stats.Halves.count(ok)
		s.mu.Unlock()
	}
	if ft == nil {
		ft = new(FusedTrace)
	}
	fuseSample(ft, st, app, vectorBits, seed)
	return ft
}

// ReleaseFused hands a fused sample half's columns to the next fuse. Nothing
// may read ft afterwards; annotations combined from it keep no column of it.
func (s *Scratch) ReleaseFused(ft *FusedTrace) {
	if s == nil || ft == nil {
		return
	}
	s.mu.Lock()
	s.halves = append(s.halves, ft)
	s.mu.Unlock()
}

// chunkBuffers returns a cold pass's two chunk buffers: released ones while
// there are, empty ones (chunkReader sizes them) after.
func (s *Scratch) chunkBuffers() [2][]isa.Instr {
	var bufs [2][]isa.Instr
	if s == nil {
		return bufs
	}
	s.mu.Lock()
	for i := range bufs {
		var ok bool
		bufs[i], ok = takeLast(&s.chunks)
		s.stats.Chunks.count(ok)
	}
	s.mu.Unlock()
	return bufs
}

// releaseChunks hands a finished pass's chunk buffers on; a buffer the pass
// never filled is nil and is dropped.
func (s *Scratch) releaseChunks(bufs [2][]isa.Instr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for _, b := range bufs {
		if b != nil {
			s.chunks = append(s.chunks, b[:0])
		}
	}
	s.mu.Unlock()
}

// walk returns the cache hierarchies of cfgs over one L1: a released
// SharedL1 over the same hierarchy configurations, reset, or a new one.
func (s *Scratch) walk(cfgs []Config) *cache.SharedL1 {
	hcfgs := walkConfigs(cfgs)
	if s != nil {
		s.mu.Lock()
		i := slices.IndexFunc(s.walks, func(w *cache.SharedL1) bool { return walksConfigs(w, hcfgs) })
		var w *cache.SharedL1
		if i >= 0 {
			w = s.walks[i]
			s.walks = slices.Delete(s.walks, i, i+1)
			s.walkBytes -= w.Bytes()
		}
		s.stats.Hierarchies.count(i >= 0)
		s.mu.Unlock()
		if w != nil {
			w.Reset()
			return w
		}
	}
	return cache.NewSharedL1(hcfgs)
}

// walksConfigs reports whether w's hierarchies are cfgs, in order.
func walksConfigs(w *cache.SharedL1, cfgs []cache.HierarchyConfig) bool {
	hs := w.Hierarchies()
	if len(hs) != len(cfgs) {
		return false
	}
	for i, h := range hs {
		if h.Config() != cfgs[i] {
			return false
		}
	}
	return true
}

// releaseWalk hands a finished pass's hierarchies to the next pass over the
// same configurations, unless keeping them would take the scratch's cache
// arrays over maxScratchWalkBytes.
func (s *Scratch) releaseWalk(w *cache.SharedL1) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if n := w.Bytes(); s.walkBytes+n <= maxScratchWalkBytes {
		s.walks = append(s.walks, w)
		s.walkBytes += n
	}
	s.mu.Unlock()
}
