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

// Scratch is storage that a sequence of builds hands on: fused sample halves,
// compiled op columns, hit-rate tables' level columns, the fusers that fuse
// them, and what a cold pass or a sample fuse streams through — its
// generator, its two chunk buffers and a pass's cache hierarchies (up to
// maxScratchWalkBytes of them). A value released to it is handed to the next
// build of the same kind, which overwrites it completely — a half is fused anew
// element by element, an op column recompiled, a level column cleared and
// walked again, a generator or a fuser reset (apps.DetailedStream.Reset or
// Restore, isa.Fuser.Reset), a hierarchy reset in place
// (cache.SharedL1.Reset) — so a build on recycled storage equals a build on
// new storage byte for byte. Only what has no reader left may be released; a
// released value is the next build's. A draw takes the smallest released
// value with room for its build, else the largest, which the build grows.
//
// Runs that share one scratch each draw through their own view (Share),
// whose Stats count that run's draws alone; a value released through any
// view goes to the one storage, for whichever run builds next. EndRun lets
// go of the hierarchies no pass drew back since the previous EndRun and
// trims what stays for later runs to MaxScratchKeepBytes. Make one with
// NewScratch. Safe for concurrent use.
type Scratch struct {
	*storage
	stats ScratchStats // the draws made through this view, guarded by mu
}

// storage is what the views of one Scratch share: a shelf per kind.
type storage struct {
	mu      sync.Mutex // guards the shelves and the stats of every view
	halves  shelf[*FusedTrace]
	ops     shelf[[]uint32]
	tables  shelf[[]uint8]
	streams shelf[*apps.DetailedStream]
	chunks  shelf[[]isa.Instr]
	walks   shelf[keptWalk]
	fusers  shelf[*isa.Fuser]
}

// NewScratch returns an empty scratch. Its storage is the table of kinds:
// each kind's shelf, with the kind's room and bytes.
func NewScratch() *Scratch {
	return &Scratch{storage: &storage{
		halves:  shelf[*FusedTrace]{kind: ScratchHalves, room: halfRoom, bytes: (*FusedTrace).bytes},
		ops:     columnShelf[uint32](ScratchOps),
		tables:  columnShelf[uint8](ScratchTables),
		streams: shelf[*apps.DetailedStream]{kind: ScratchStreams, room: (*apps.DetailedStream).Bytes, bytes: (*apps.DetailedStream).Bytes},
		chunks:  columnShelf[isa.Instr](ScratchChunks),
		walks:   shelf[keptWalk]{kind: ScratchHierarchies, room: keptWalk.Bytes, bytes: keptWalk.Bytes, limit: maxScratchWalkBytes},
		fusers:  shelf[*isa.Fuser]{kind: ScratchFusers, room: (*isa.Fuser).Bytes, bytes: (*isa.Fuser).Bytes},
	}}
}

// ScratchKind is a kind of value a Scratch recycles. Its String is the name
// of the kind's attribute on a run's span, scratch.<kind>.
type ScratchKind int

const (
	ScratchHalves      ScratchKind = iota // fused sample halves
	ScratchOps                            // compiled op columns
	ScratchTables                         // hit-rate tables' level columns
	ScratchStreams                        // generators
	ScratchChunks                         // chunk buffers
	ScratchHierarchies                    // cold-pass cache hierarchy sets
	ScratchFusers                         // fusers
	NumScratchKinds
)

var scratchKindNames = [NumScratchKinds]string{
	"halves", "ops", "tables", "streams", "chunks", "hierarchies", "fusers",
}

func (k ScratchKind) String() string { return scratchKindNames[k] }

// columnShelf is the shelf of a kind of column: a column's room is its
// capacity, in elements.
func columnShelf[E any](k ScratchKind) shelf[[]E] {
	return shelf[[]E]{kind: k, room: func(col []E) int64 { return int64(cap(col)) }, bytes: columnBytes[E]}
}

// inDropOrder returns the shelves in the order EndRun lets go of their
// values.
func (st *storage) inDropOrder() [NumScratchKinds]anyShelf {
	return [...]anyShelf{&st.halves, &st.tables, &st.ops, &st.walks, &st.streams, &st.chunks, &st.fusers}
}

// anyShelf is a shelf of any kind, as Held and EndRun see it.
type anyShelf interface {
	held() (ScratchKind, ScratchKept)
	trim(over *int64)
}

// shelf is the released values of one kind, with the kind's room (how large
// a build a value serves without growing) and bytes (its storage).
type shelf[T any] struct {
	kind        ScratchKind
	vals        []T
	room, bytes func(T) int64
	// limit, if positive, bounds the shelf's bytes: a release that would
	// take them over it is let go.
	limit int64
}

func (sh *shelf[T]) held() (ScratchKind, ScratchKept) {
	kept := ScratchKept{Values: len(sh.vals)}
	for _, v := range sh.vals {
		kept.Bytes += sh.bytes(v)
	}
	return sh.kind, kept
}

// trim lets go of the oldest values while *over is positive, taking their
// bytes off it.
func (sh *shelf[T]) trim(over *int64) {
	for *over > 0 && len(sh.vals) > 0 {
		*over -= sh.bytes(sh.vals[0])
		sh.vals = slices.Delete(sh.vals, 0, 1)
	}
}

// anyRoom is the need of a draw that cannot tell how much it needs: it takes
// the largest value, and any value counts as reused.
const anyRoom = math.MaxInt64

// take is every draw: it removes from sh, a shelf of s, the value with the
// least room among those with room for need, or the one with the most room
// when none has enough — among those match accepts, if match is set — and
// counts the draw on s. It reports whether the value has room for need; the
// zero T when sh holds none.
func take[T any](s *Scratch, sh *shelf[T], need int64, match func(T) bool) (v T, reused bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := -1
	for i, c := range sh.vals {
		if match != nil && !match(c) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		r, b := sh.room(c), sh.room(sh.vals[best])
		if (r >= need && (b < need || r < b)) || (b < need && r > b) {
			best = i
		}
	}
	if best >= 0 {
		v = sh.vals[best]
		sh.vals = slices.Delete(sh.vals, best, best+1)
		reused = need == anyRoom || sh.room(v) >= need
	}
	if reused {
		s.stats[sh.kind].Reused++
	} else {
		s.stats[sh.kind].New++
	}
	return v, reused
}

// put is every release: it hands v, which nothing reads any more, to the
// next take from sh, a shelf of s.
func put[T any](s *Scratch, sh *shelf[T], v T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh.limit > 0 {
		if _, kept := sh.held(); kept.Bytes+sh.bytes(v) > sh.limit {
			return
		}
	}
	sh.vals = append(sh.vals, v)
}

// keptWalk is a released set of cache hierarchies and whether a pass drew
// it back from the scratch since the last EndRun, which keeps only those.
type keptWalk struct {
	*cache.SharedL1
	drawn bool
}

// maxScratchWalkBytes bounds the cache arrays a Scratch keeps between
// passes: a 64-core slice's 0.28 MB a width, not a full grid's 1-core L3
// partitions (10.6 MB a width), which a full-grid sweep would hold through
// its timing replays. It is 16 MiB of the 9-byte lines the cache once stored
// scaled to its 4-byte lines, so the scratch keeps the same sets it did.
const maxScratchWalkBytes = (16 << 20) * 4 / 9

// MaxScratchKeepBytes bounds everything a Scratch keeps when a run ends
// (EndRun), however many runs ended at once: about two applications' values
// at the benchmark's fidelity, which the next sweep draws (DESIGN §15).
const MaxScratchKeepBytes = 24 << 20

// ScratchStats counts, per kind, the builds a Scratch served from released
// storage (Reused) and those that allocated it (New), a build that had to
// grow the value it drew among them. A generator, an op column or a fuser is
// drawn before its size is known: any released one counts as Reused.
type ScratchStats [NumScratchKinds]ScratchCount

// ScratchCount is one kind's reused and newly allocated builds.
type ScratchCount struct {
	Reused, New int64
}

// ScratchHeld is what a Scratch holds for the next builds, per kind, all of
// which EndRun bounds.
type ScratchHeld [NumScratchKinds]ScratchKept

// ScratchKept is one kind's held values and their bytes (capacities).
type ScratchKept struct {
	Values int
	Bytes  int64
}

// Bytes is the bytes held of every kind.
func (h ScratchHeld) Bytes() int64 {
	var n int64
	for _, k := range h {
		n += k.Bytes
	}
	return n
}

// Share returns a view of s (nil for a nil one): a scratch that draws from
// and releases to s's storage and whose Stats count only the draws made
// through it. A client hands each of its runs a view of its one scratch.
func (s *Scratch) Share() *Scratch {
	if s == nil {
		return nil
	}
	return &Scratch{storage: s.storage}
}

// Stats returns the draws made through s so far.
func (s *Scratch) Stats() ScratchStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Held returns what s's storage holds now.
func (s *Scratch) Held() ScratchHeld {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held()
}

// held is Held with mu held.
func (st *storage) held() ScratchHeld {
	var h ScratchHeld
	for _, sh := range st.inDropOrder() {
		k, kept := sh.held()
		h[k] = kept
	}
	return h
}

// EndRun is called when a run's builds are done. It lets go of the cache
// hierarchies no pass drew back from the scratch since the previous EndRun —
// the set a one-point run walked once, which a ring replica would otherwise
// hold for its next rare cold miss — and of the oldest halves, then
// level columns, op columns, hierarchies, generators, chunk buffers and
// fusers, until what stays fits MaxScratchKeepBytes. A run still going on
// the same storage loses only storage.
func (s *Scratch) EndRun() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.walks.vals = slices.DeleteFunc(s.walks.vals, func(w keptWalk) bool { return !w.drawn })
	for i := range s.walks.vals {
		s.walks.vals[i].drawn = false
	}
	over := s.held().Bytes() - MaxScratchKeepBytes
	for _, sh := range s.inDropOrder() {
		sh.trim(&over)
	}
}

// columnBytes is the storage of a column: its capacity.
func columnBytes[T any](col []T) int64 {
	return int64(cap(col)) * int64(reflect.TypeFor[T]().Size())
}

// bytes is the storage of ft's columns.
func (ft *FusedTrace) bytes() int64 {
	return columnBytes(ft.WarmOps) + columnBytes(ft.SampleOps) + columnBytes(ft.Deps) + columnBytes(ft.Meta)
}

// halfRoom is the room of a fused half: the sample micro-ops its dependence
// and meta columns hold without growing.
func halfRoom(ft *FusedTrace) int64 { return int64(min(cap(ft.Deps), cap(ft.Meta))) }

// stream returns a generator for a Reset or a Restore: a released one, or a
// new one.
func (s *Scratch) stream() *apps.DetailedStream {
	if gen, ok := take(s, &s.streams, anyRoom, nil); ok {
		return gen
	}
	return new(apps.DetailedStream)
}

// fuser returns a fuser at vectorBits' default configuration with no input
// (Feed gives it one): a released one reset (isa.Fuser.Reset), or a new one.
func (s *Scratch) fuser(vectorBits int) *isa.Fuser {
	cfg := isa.DefaultFuserConfig(vectorBits)
	if fu, ok := take(s, &s.fusers, anyRoom, nil); ok {
		fu.Reset(cfg)
		return fu
	}
	return isa.NewFuser(nil, cfg)
}

// releaseFuser hands a fuser to the next fuser draw. It drops the fuser's
// input first: a kept fuser must not keep the window or chunk it last read.
func (s *Scratch) releaseFuser(fu *isa.Fuser) {
	fu.Feed(nil)
	put(s, &s.fusers, fu)
}

// SampleCheckpoint returns the checkpoint of app's generator at seed at the
// start of the sample window at this fidelity: the generator stepped
// through the warm window without materialising it, on a released
// generator.
func (s *Scratch) SampleCheckpoint(app *apps.Profile, sampleInstrs, warmupInstrs int64, seed uint64) *apps.Checkpoint {
	_, warmupInstrs = apps.EffectiveFidelity(sampleInstrs, warmupInstrs)
	gen := s.stream()
	gen.Reset(app, seed)
	gen.Skip(warmupInstrs)
	cp := gen.Checkpoint()
	put(s, &s.streams, gen)
	return cp
}

// FuseSample restores cp, the checkpoint at the start of app's sample window
// of sample micro-ops at seed, and streams the window through one fuser per
// width: it returns the fused sample half of each width — everything of a
// FusedTrace but WarmOps, which stays nil; all CombineAnnotation and the
// timing replay read — in widths order, each in a released half's storage.
// The window is generated once, two chunk buffers at a time, whatever the
// widths; nothing longer than a chunk is materialised.
func (s *Scratch) FuseSample(cp *apps.Checkpoint, sample int64, app *apps.Profile, seed uint64, widths []int) []*FusedTrace {
	return s.fuseSample(cp, sample, app, seed, widths, coldChunk)
}

// fuseSample is FuseSample with the chunk length a parameter, so tests can
// force cuts.
func (s *Scratch) fuseSample(cp *apps.Checkpoint, sample int64, app *apps.Profile, seed uint64, widths []int, chunk int) []*FusedTrace {
	gen := s.stream()
	gen.Restore(cp)
	fuses := make([]sampleFuse, len(widths))
	for i, vec := range widths {
		fuses[i].begin(s.half(sample), s.fuser(vec), app, seed, sample)
	}
	r := s.chunkReader(gen, sample, chunk, sample)
	for {
		instrs, _, ok := r.next()
		if !ok {
			break
		}
		for i := range fuses {
			fuses[i].feed(instrs)
		}
	}
	s.releaseReader(r)
	out := make([]*FusedTrace, len(fuses))
	for i := range fuses {
		out[i] = fuses[i].end()
		s.releaseFuser(fuses[i].fu)
	}
	return out
}

// half returns a fused half to fuse a sample window of n micro-ops into: a
// released one, the smallest with room, or a new one.
func (s *Scratch) half(n int64) *FusedTrace {
	if ft, _ := take(s, &s.halves, n, nil); ft != nil {
		return ft
	}
	return new(FusedTrace)
}

// ReleaseFused hands a fused sample half's columns to the next fuse. Nothing
// may read ft afterwards; annotations combined from it keep no column of it.
func (s *Scratch) ReleaseFused(ft *FusedTrace) {
	if ft != nil {
		put(s, &s.halves, ft)
	}
}

// Ops returns the largest released op column to compile into
// (CombineAnnotationInto grows it as needed), or nil when there is none: a
// sweep worker draws it before it knows the groups it will compile into it.
func (s *Scratch) Ops() []uint32 {
	ops, _ := take(s, &s.ops, anyRoom, nil)
	return ops
}

// ReleaseOps hands an op column to the next Ops. Nothing may read ops
// afterwards: no annotation compiled into it is simulated again.
func (s *Scratch) ReleaseOps(ops []uint32) {
	if ops != nil {
		put(s, &s.ops, ops[:0])
	}
}

// levels returns a level column of n zeros: a released one with room for n,
// cleared, or a new one.
func (s *Scratch) levels(n int) []uint8 {
	if col, ok := take(s, &s.tables, int64(n), nil); ok {
		col = col[:n]
		clear(col)
		return col
	}
	return make([]uint8, n)
}

// ReleaseTable hands a hit-rate table's level column to the next table a
// cold pass walks. Nothing may read hrt.Levels afterwards: no provider holds
// the table, and the annotations compiled from it keep no level column.
func (s *Scratch) ReleaseTable(hrt HitRateTable) {
	if hrt.Levels != nil {
		put(s, &s.tables, hrt.Levels[:0])
	}
}

// walk returns the cache hierarchies of cfgs over one L1 — a released
// SharedL1 over the same hierarchy configurations, reset, or a new one — and
// whether it was drawn back from the scratch.
func (s *Scratch) walk(cfgs []Config) (*cache.SharedL1, bool) {
	hcfgs := walkConfigs(cfgs)
	same := func(w keptWalk) bool {
		return slices.EqualFunc(w.Hierarchies(), hcfgs, func(h *cache.Hierarchy, c cache.HierarchyConfig) bool { return h.Config() == c })
	}
	if w, ok := take(s, &s.walks, 0, same); ok {
		w.Reset()
		return w.SharedL1, true
	}
	return cache.NewSharedL1(hcfgs), false
}
