package node

import (
	"math"
	"reflect"
	"slices"
	"sync"

	"musa/internal/apps"
	"musa/internal/cache"
	"musa/internal/isa"
)

// Scratch is storage that a sequence of builds hands on: sample windows,
// fused sample halves, compiled op columns, hit-rate tables' level columns,
// and what a cold pass streams through — its generator, its two chunk
// buffers and its cache hierarchies (up to maxScratchWalkBytes of them). A
// column released to it is handed to the next build of the same kind, which
// overwrites it completely — a window or a half is regenerated element by
// element, an op column recompiled, a level column cleared and walked again,
// a generator reset (apps.DetailedStream.Reset), a hierarchy reset in place
// (cache.SharedL1.Reset) — so a build on recycled storage equals a build on
// new storage byte for byte. Only what has no reader left may be released; a
// released column is the next build's. A draw takes the smallest released
// column with room for its build, else the largest, which the build grows.
//
// Runs that share one scratch each draw through their own view (Share),
// whose Stats count that run's draws alone; a column released through any
// view goes to the one storage, for whichever run builds next. EndRun lets
// go of the hierarchies no pass drew back since the previous EndRun and
// trims what stays for later runs to MaxScratchKeepBytes. The zero Scratch
// is empty; a nil *Scratch recycles nothing, and every build through it
// allocates. Safe for concurrent use.
type Scratch struct {
	// shared is the scratch whose storage a view draws from and releases
	// to; nil when the storage below is this scratch's own.
	shared *Scratch

	mu      sync.Mutex // of the storage's scratch: guards the storage and the stats of every view of it
	windows [][]isa.Instr
	halves  []*FusedTrace
	ops     [][]uint32
	tables  [][]uint8
	streams []*apps.DetailedStream
	chunks  [][]isa.Instr
	walks   []keptWalk

	stats ScratchStats // the draws made through this scratch
}

// keptWalk is a released set of cache hierarchies and whether a pass drew
// it back from the scratch since the last EndRun, which keeps only those.
type keptWalk struct {
	*cache.SharedL1
	drawn bool
}

func (w keptWalk) bytes() int64 { return w.Bytes() }

// maxScratchWalkBytes bounds the cache arrays a Scratch keeps between
// passes. A sweep of the 64-core slice walks 0.6 MB of them per width and
// keeps them all; a pass over the whole Table I grid walks 25 MB per width,
// 24 of them the 1-core L3 partitions, which are let go at the end of the
// pass instead of being held through the timing replays that follow: what a
// full-grid sweep holds live sets its peak RSS.
const maxScratchWalkBytes = 16 << 20

// MaxScratchKeepBytes bounds everything a Scratch keeps when a run ends
// (EndRun). A sweep has two applications live near each application
// boundary, so it ends holding about two applications' columns, and the next
// sweep draws from all of them. Measured after 360-point sweeps of the five
// applications at the benchmark's fidelity (120 000 sample micro-ops, two
// workers) without an artifact cache: 24.6 MB — two 3.84 MB windows, six
// 1.93 MB halves, two 0.47 MB op columns, eighteen level columns (1.72 MB),
// three hierarchy sets (1.89 MB), two 256 KiB chunk buffers and a
// generator's 0.2 MB block buffer. With an artifact cache it keeps no window
// (the client's front holds them) and no level column (the cache holds the
// tables). At default fidelity (300 000) the windows are let go first. The
// bound, not the number of runs, caps what a client holds between runs,
// however many ran at once.
const MaxScratchKeepBytes = 24 << 20

// ScratchStats counts, per kind of column, the builds a Scratch served from
// released storage (Reused) and those that allocated it (New), a build that
// had to grow the column it drew among them. An op column is drawn before
// its length is known: any released one counts as Reused.
type ScratchStats struct {
	Windows, Halves, Ops, Tables, Streams, Chunks, Hierarchies ScratchCount
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
// each kind and their bytes (capacities), all of which EndRun bounds.
type ScratchHeld struct {
	Windows, Halves, Ops, Tables, Streams, Chunks, Hierarchies int
	Bytes                                                      int64
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
		Windows: len(sc.windows), Halves: len(sc.halves), Ops: len(sc.ops), Tables: len(sc.tables),
		Streams: len(sc.streams), Chunks: len(sc.chunks), Hierarchies: len(sc.walks),
		Bytes: sc.keptBytes(),
	}
}

// keptBytes is what EndRun bounds: every column held. s is a storage's
// scratch, and the caller holds its mu.
func (s *Scratch) keptBytes() int64 {
	return sum(s.windows, columnBytes) + sum(s.halves, (*FusedTrace).bytes) + sum(s.ops, columnBytes) +
		sum(s.tables, columnBytes) + sum(s.streams, (*apps.DetailedStream).Bytes) +
		sum(s.chunks, columnBytes) + sum(s.walks, keptWalk.bytes)
}

// EndRun is called when a run's builds are done. It lets go of the cache
// hierarchies no pass drew back from the scratch since the previous EndRun —
// the set a one-point run walked once, which a ring replica would otherwise
// hold for its next rare cold miss — and of the oldest windows, then halves,
// level columns, op columns, hierarchies, generators and chunk buffers,
// until what stays fits MaxScratchKeepBytes. A run still going on the same
// storage loses only storage.
func (s *Scratch) EndRun() {
	if s == nil {
		return
	}
	sc := s.lock()
	defer sc.mu.Unlock()
	sc.walks = slices.DeleteFunc(sc.walks, func(w keptWalk) bool { return !w.drawn })
	for i := range sc.walks {
		sc.walks[i].drawn = false
	}
	over := sc.keptBytes() - MaxScratchKeepBytes
	dropOldest(&sc.windows, columnBytes, &over)
	dropOldest(&sc.halves, (*FusedTrace).bytes, &over)
	dropOldest(&sc.tables, columnBytes, &over)
	dropOldest(&sc.ops, columnBytes, &over)
	dropOldest(&sc.walks, keptWalk.bytes, &over)
	dropOldest(&sc.streams, (*apps.DetailedStream).Bytes, &over)
	dropOldest(&sc.chunks, columnBytes, &over)
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

// anyRoom is the need of a draw that cannot tell how much it needs: it takes
// the largest column.
const anyRoom = math.MaxInt64

// takeFit removes from *list and returns the element with the least room
// among those with room for need, or the one with the most room when none
// has enough; false when the list is empty.
func takeFit[T any](list *[]T, need int64, room func(T) int64) (T, bool) {
	var v T
	best := -1
	for i, c := range *list {
		if best < 0 {
			best = i
			continue
		}
		r, b := room(c), room((*list)[best])
		if (r >= need && (b < need || r < b)) || (b < need && r > b) {
			best = i
		}
	}
	if best < 0 {
		return v, false
	}
	v = (*list)[best]
	*list = slices.Delete(*list, best, best+1)
	return v, true
}

// capRoom is the room of a column: its capacity, in elements.
func capRoom[T any](col []T) int64 { return int64(cap(col)) }

// halfRoom is the room of a fused half: the sample micro-ops its dependence
// and meta columns hold without growing.
func halfRoom(ft *FusedTrace) int64 { return int64(min(cap(ft.Deps), cap(ft.Meta))) }

// stream returns app's generator at seed: a released one reset
// (apps.DetailedStream.Reset), or a new one.
func (s *Scratch) stream(app *apps.Profile, seed uint64) *apps.DetailedStream {
	if s != nil {
		sc := s.lock()
		gen, ok := takeFit(&sc.streams, anyRoom, (*apps.DetailedStream).Bytes)
		s.stats.Streams.count(ok)
		sc.mu.Unlock()
		if ok {
			gen.Reset(app, seed)
			return gen
		}
	}
	return apps.NewDetailedStream(app, seed)
}

// releaseStream hands a generator nothing reads any more to the next
// stream.
func (s *Scratch) releaseStream(gen *apps.DetailedStream) {
	if s == nil {
		return
	}
	sc := s.lock()
	sc.streams = append(sc.streams, gen)
	sc.mu.Unlock()
}

// SampleWindow is BuildSampleWindow into a released window's storage, from
// a released generator.
func (s *Scratch) SampleWindow(app *apps.Profile, sampleInstrs, warmupInstrs int64, seed uint64) ScalarTrace {
	sampleInstrs, warmupInstrs = apps.EffectiveFidelity(sampleInstrs, warmupInstrs)
	gen := s.stream(app, seed)
	gen.Skip(warmupInstrs)
	st := s.generate(gen, sampleInstrs)
	s.releaseStream(gen)
	return st
}

// generate materialises the next n micro-ops of gen as a sample window, in a
// released window's storage (grown when none is long enough).
func (s *Scratch) generate(gen *apps.DetailedStream, n int64) ScalarTrace {
	var instrs []isa.Instr
	if s != nil {
		sc := s.lock()
		instrs, _ = takeFit(&sc.windows, n, capRoom)
		s.stats.Windows.count(capRoom(instrs) >= n)
		sc.mu.Unlock()
	}
	instrs = slices.Grow(instrs[:0], int(n))[:n]
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
		need := int64(len(st.Instrs)) - st.Warm
		sc := s.lock()
		ft, _ = takeFit(&sc.halves, need, halfRoom)
		s.stats.Halves.count(ft != nil && halfRoom(ft) >= need)
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

// Ops returns the largest released op column to compile into
// (CombineAnnotationInto grows it as needed), or nil when there is none: a
// sweep worker draws it before it knows the groups it will compile into it.
func (s *Scratch) Ops() []uint32 {
	if s == nil {
		return nil
	}
	sc := s.lock()
	defer sc.mu.Unlock()
	ops, ok := takeFit(&sc.ops, anyRoom, capRoom)
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

// levels returns a level column of n zeros: a released one with room for n,
// cleared, or a new one.
func (s *Scratch) levels(n int) []uint8 {
	if s == nil {
		return make([]uint8, n)
	}
	sc := s.lock()
	col, _ := takeFit(&sc.tables, int64(n), capRoom)
	reused := cap(col) >= n
	s.stats.Tables.count(reused)
	sc.mu.Unlock()
	if !reused {
		return make([]uint8, n)
	}
	col = col[:n]
	clear(col)
	return col
}

// ReleaseTable hands a hit-rate table's level column to the next table a
// cold pass walks. Nothing may read hrt.Levels afterwards: no provider holds
// the table, and the annotations compiled from it keep no level column.
func (s *Scratch) ReleaseTable(hrt HitRateTable) {
	if s == nil || hrt.Levels == nil {
		return
	}
	sc := s.lock()
	sc.tables = append(sc.tables, hrt.Levels[:0])
	sc.mu.Unlock()
}

// chunkBuffers returns a cold pass's two chunk buffers for chunks of up to
// need micro-ops: released ones while there are, the smallest with room
// first, nil ones (chunkReader sizes them) after.
func (s *Scratch) chunkBuffers(need int64) [2][]isa.Instr {
	var bufs [2][]isa.Instr
	if s == nil {
		return bufs
	}
	sc := s.lock()
	for i := range bufs {
		bufs[i], _ = takeFit(&sc.chunks, need, capRoom)
		s.stats.Chunks.count(capRoom(bufs[i]) >= need)
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

// walk returns the cache hierarchies of cfgs over one L1 — a released
// SharedL1 over the same hierarchy configurations, reset, or a new one — and
// whether it was drawn back from the scratch.
func (s *Scratch) walk(cfgs []Config) (*cache.SharedL1, bool) {
	hcfgs := walkConfigs(cfgs)
	if s != nil {
		sc := s.lock()
		i := slices.IndexFunc(sc.walks, func(w keptWalk) bool { return walksConfigs(w.SharedL1, hcfgs) })
		var w *cache.SharedL1
		if i >= 0 {
			w = sc.walks[i].SharedL1
			sc.walks = slices.Delete(sc.walks, i, i+1)
		}
		s.stats.Hierarchies.count(i >= 0)
		sc.mu.Unlock()
		if w != nil {
			w.Reset()
			return w, true
		}
	}
	return cache.NewSharedL1(hcfgs), false
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
// arrays over maxScratchWalkBytes. drawn is walk's second result: EndRun
// keeps only sets a pass drew back.
func (s *Scratch) releaseWalk(w *cache.SharedL1, drawn bool) {
	if s == nil {
		return
	}
	sc := s.lock()
	if sum(sc.walks, keptWalk.bytes)+w.Bytes() <= maxScratchWalkBytes {
		sc.walks = append(sc.walks, keptWalk{w, drawn})
	}
	sc.mu.Unlock()
}
