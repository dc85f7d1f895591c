package node

import (
	"reflect"
	"slices"
	"sync"

	"musa/internal/apps"
	"musa/internal/cache"
	"musa/internal/isa"
)

// Scratch is storage that a sequence of builds hands on: sample windows,
// fused sample halves, compiled op columns, a cold pass's chunk buffers and
// its cache hierarchies (up to maxScratchWalkBytes of them). A column
// released to it is handed to the next build of the same kind, which
// overwrites it completely — a window or a half is regenerated element by
// element, an op column recompiled, a hierarchy reset in place
// (cache.SharedL1.Reset) — so a build on recycled storage equals a build on
// new storage byte for byte. Only what has no reader left may be released; a
// released column is the next build's.
//
// Runs that share one scratch each draw through their own view (Share),
// whose Stats count that run's draws alone; a column released through any
// view goes to the one storage, for whichever run builds next. EndRun lets
// go of what only cold passes use and trims what stays for later runs to
// MaxScratchKeepBytes. The zero Scratch is empty; a nil *Scratch recycles
// nothing, and every build through it allocates. Safe for concurrent use.
type Scratch struct {
	// shared is the scratch whose storage a view draws from and releases
	// to; nil when the storage below is this scratch's own.
	shared *Scratch

	mu        sync.Mutex // of the storage's scratch: guards the storage and the stats of every view of it
	windows   [][]isa.Instr
	halves    []*FusedTrace
	ops       [][]uint32
	chunks    [][]isa.Instr
	walks     []*cache.SharedL1
	walkBytes int64 // the cache arrays of walks

	stats ScratchStats // the draws made through this scratch
}

// maxScratchWalkBytes bounds the cache arrays a Scratch keeps between
// passes. A sweep of the 64-core slice walks 0.6 MB of them per width and
// keeps them all; a pass over the whole Table I grid walks 25 MB per width,
// 24 of them the 1-core L3 partitions, which are let go at the end of the
// pass instead of being held through the timing replays that follow: what a
// full-grid sweep holds live sets its peak RSS.
const maxScratchWalkBytes = 16 << 20

// MaxScratchKeepBytes bounds the windows, fused halves and op columns a
// Scratch keeps when a run ends (EndRun). A sweep has two applications live
// near each application boundary, so it ends holding about two applications'
// columns, and the next sweep draws from all of them. Measured after
// 360-point sweeps of the five applications at the benchmark's fidelity
// (120 000 sample micro-ops, two workers): 20.2 MB without an artifact
// cache (two 3.84 MB windows, six 1.94 MB halves, two 0.48 MB op columns) and
// 12.5 MB with one (no window: the client's front holds them). At default
// fidelity (300 000) the windows are let go first. The bound, not the number
// of runs, caps what a client holds between runs, however many ran at once.
const MaxScratchKeepBytes = 24 << 20

// ScratchStats counts, per kind of column, the builds a Scratch served from
// released storage (Reused) and those that allocated it (New).
type ScratchStats struct {
	Windows, Halves, Ops, Chunks, Hierarchies ScratchCount
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

// ScratchHeld is what a Scratch holds for the next builds: its columns of
// each kind and their bytes (capacities).
type ScratchHeld struct {
	Windows, Halves, Ops, Chunks, Hierarchies int
	Bytes                                     int64
}

// Share returns a view of s: a scratch that draws from and releases to s's
// storage and whose Stats count only the draws made through it. A client
// hands each of its runs a view of its one scratch.
func (s *Scratch) Share() *Scratch {
	if s == nil {
		return nil
	}
	return &Scratch{shared: s.storage()}
}

// storage is the scratch holding s's storage: s, or the one it views.
func (s *Scratch) storage() *Scratch {
	if s.shared != nil {
		return s.shared
	}
	return s
}

// lock locks s's storage and returns its scratch, whose mu the caller
// unlocks.
func (s *Scratch) lock() *Scratch {
	sc := s.storage()
	sc.mu.Lock()
	return sc
}

// Stats returns the draws made through s so far (zero for a nil one).
func (s *Scratch) Stats() ScratchStats {
	if s == nil {
		return ScratchStats{}
	}
	defer s.lock().mu.Unlock()
	return s.stats
}

// Held returns what s's storage holds now (zero for a nil one).
func (s *Scratch) Held() ScratchHeld {
	if s == nil {
		return ScratchHeld{}
	}
	sc := s.lock()
	defer sc.mu.Unlock()
	return ScratchHeld{
		Windows: len(sc.windows), Halves: len(sc.halves), Ops: len(sc.ops),
		Chunks: len(sc.chunks), Hierarchies: len(sc.walks),
		Bytes: sc.keptBytes() + sum(sc.chunks, columnBytes) + sc.walkBytes,
	}
}

// keptBytes is what EndRun bounds: the windows, halves and op columns held.
// s is a storage's scratch, and the caller holds its mu.
func (s *Scratch) keptBytes() int64 {
	return sum(s.windows, columnBytes) + sum(s.halves, (*FusedTrace).bytes) + sum(s.ops, columnBytes)
}

// EndRun is called when a run's builds are done. It lets go of what only a
// cold pass uses — chunk buffers and cache hierarchies — so a client keeps
// no pass storage between runs, and of the oldest windows, then halves, then
// op columns, until what stays fits MaxScratchKeepBytes. A run still going
// on the same storage loses only storage.
func (s *Scratch) EndRun() {
	if s == nil {
		return
	}
	sc := s.lock()
	defer sc.mu.Unlock()
	sc.chunks, sc.walks, sc.walkBytes = nil, nil, 0
	over := sc.keptBytes() - MaxScratchKeepBytes
	dropOldest(&sc.windows, columnBytes, &over)
	dropOldest(&sc.halves, (*FusedTrace).bytes, &over)
	dropOldest(&sc.ops, columnBytes, &over)
}

// dropOldest drops the first elements of *list while *over is positive,
// taking their bytes off it.
func dropOldest[T any](list *[]T, bytes func(T) int64, over *int64) {
	for *over > 0 && len(*list) > 0 {
		*over -= bytes((*list)[0])
		*list = slices.Delete(*list, 0, 1)
	}
}

func sum[T any](list []T, bytes func(T) int64) int64 {
	var n int64
	for _, v := range list {
		n += bytes(v)
	}
	return n
}

// columnBytes is the storage of a column: its capacity.
func columnBytes[T any](col []T) int64 {
	return int64(cap(col)) * int64(reflect.TypeFor[T]().Size())
}

// bytes is the storage of ft's columns.
func (ft *FusedTrace) bytes() int64 {
	return columnBytes(ft.WarmOps) + columnBytes(ft.SampleOps) + columnBytes(ft.Deps) + columnBytes(ft.Meta)
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
		sc := s.lock()
		w, ok := takeLast(&sc.windows)
		if ok && int64(cap(w)) >= n {
			instrs = w[:n]
		}
		s.stats.Windows.count(instrs != nil)
		sc.mu.Unlock()
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
	sc := s.lock()
	sc.windows = append(sc.windows, st.Instrs[:0])
	sc.mu.Unlock()
}

// FuseSample is FuseSample into a released half's storage.
func (s *Scratch) FuseSample(st ScalarTrace, app *apps.Profile, vectorBits int, seed uint64) *FusedTrace {
	var ft *FusedTrace
	if s != nil {
		sc := s.lock()
		var ok bool
		ft, ok = takeLast(&sc.halves)
		s.stats.Halves.count(ok)
		sc.mu.Unlock()
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
	sc := s.lock()
	sc.halves = append(sc.halves, ft)
	sc.mu.Unlock()
}

// Ops returns a released op column to compile into (CombineAnnotationInto
// grows it as needed), or nil when there is none.
func (s *Scratch) Ops() []uint32 {
	if s == nil {
		return nil
	}
	sc := s.lock()
	defer sc.mu.Unlock()
	ops, ok := takeLast(&sc.ops)
	s.stats.Ops.count(ok)
	return ops
}

// ReleaseOps hands an op column to the next Ops. Nothing may read ops
// afterwards: no annotation compiled into it is simulated again.
func (s *Scratch) ReleaseOps(ops []uint32) {
	if s == nil || ops == nil {
		return
	}
	sc := s.lock()
	sc.ops = append(sc.ops, ops[:0])
	sc.mu.Unlock()
}

// chunkBuffers returns a cold pass's two chunk buffers: released ones while
// there are, empty ones (chunkReader sizes them) after.
func (s *Scratch) chunkBuffers() [2][]isa.Instr {
	var bufs [2][]isa.Instr
	if s == nil {
		return bufs
	}
	sc := s.lock()
	for i := range bufs {
		var ok bool
		bufs[i], ok = takeLast(&sc.chunks)
		s.stats.Chunks.count(ok)
	}
	sc.mu.Unlock()
	return bufs
}

// releaseChunks hands a finished pass's chunk buffers on; a buffer the pass
// never filled is nil and is dropped.
func (s *Scratch) releaseChunks(bufs [2][]isa.Instr) {
	if s == nil {
		return
	}
	sc := s.lock()
	for _, b := range bufs {
		if b != nil {
			sc.chunks = append(sc.chunks, b[:0])
		}
	}
	sc.mu.Unlock()
}

// walk returns the cache hierarchies of cfgs over one L1: a released
// SharedL1 over the same hierarchy configurations, reset, or a new one.
func (s *Scratch) walk(cfgs []Config) *cache.SharedL1 {
	hcfgs := walkConfigs(cfgs)
	if s != nil {
		sc := s.lock()
		i := slices.IndexFunc(sc.walks, func(w *cache.SharedL1) bool { return walksConfigs(w, hcfgs) })
		var w *cache.SharedL1
		if i >= 0 {
			w = sc.walks[i]
			sc.walks = slices.Delete(sc.walks, i, i+1)
			sc.walkBytes -= w.Bytes()
		}
		s.stats.Hierarchies.count(i >= 0)
		sc.mu.Unlock()
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
	sc := s.lock()
	if n := w.Bytes(); sc.walkBytes+n <= maxScratchWalkBytes {
		sc.walks = append(sc.walks, w)
		sc.walkBytes += n
	}
	sc.mu.Unlock()
}
