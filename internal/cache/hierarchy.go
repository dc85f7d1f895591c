package cache

import "fmt"

// HierarchyConfig describes the three-level hierarchy of one core's view of
// the node. L3 is shared on the chip; detailed simulation samples one core
// (as MUSA samples one rank), so the shared L3 is modeled as an equal
// per-core partition: SizeBytes here must already be the per-core share.
// MemLatencyCycle is the flat portion of the main-memory latency in core
// cycles; the DRAM model adds queueing on top.
type HierarchyConfig struct {
	L1, L2, L3      Config
	MemLatencyCycle int
	// PrefetchDegree is the stream prefetcher's lookahead in lines; zero
	// selects the default (4) and a negative value disables prefetching
	// (used by the ablation bench).
	PrefetchDegree int
}

// Level identifies where an access was served.
type Level int

// Hierarchy levels; LevelMem means the access went to DRAM.
const (
	LevelL1 Level = iota + 1
	LevelL2
	LevelL3
	LevelMem
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "mem"
	}
	return "?"
}

// Hierarchy is one core's inclusive three-level cache stack with a
// next-line stream prefetcher at the L2: sequential miss streams are
// detected and the following lines are filled into L2/L3 ahead of use, so
// streaming workloads keep generating DRAM bandwidth without exposing DRAM
// latency — which is what lets memory-bound codes saturate channels even on
// narrow out-of-order cores (the paper's LULESH behavior in Figs. 7 and 8).
type Hierarchy struct {
	cfg        HierarchyConfig
	l1         *Cache
	l2         *Cache
	l3         *Cache
	prefDegree int
	recentMiss [256]uint64

	// MemReads/MemWrites count line transfers to and from DRAM, including
	// write-backs of dirty victims and prefetch fills.
	MemReads  int64
	MemWrites int64
	// PrefetchFills counts lines brought in by the prefetcher.
	PrefetchFills int64
}

// NewHierarchy builds the stack.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return newHierarchy(cfg, New(cfg.L1))
}

// newHierarchy builds the stack over the given L1.
func newHierarchy(cfg HierarchyConfig, l1 *Cache) *Hierarchy {
	deg := cfg.PrefetchDegree
	if deg == 0 {
		deg = 4
	}
	if deg < 0 {
		deg = 0
	}
	return &Hierarchy{
		cfg:        cfg,
		l1:         l1,
		l2:         New(cfg.L2),
		l3:         New(cfg.L3),
		prefDegree: deg,
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1Stats, L2Stats and L3Stats expose the per-level counters.
func (h *Hierarchy) L1Stats() Stats { return h.l1.Stats }
func (h *Hierarchy) L2Stats() Stats { return h.l2.Stats }
func (h *Hierarchy) L3Stats() Stats { return h.l3.Stats }

// Access performs one memory access of the given size (bytes) starting at
// addr. Accesses that straddle line boundaries touch every covered line; the
// returned level and latency reflect the slowest line touched, which is what
// gates the consuming instruction. write marks stores.
func (h *Hierarchy) Access(addr uint64, size int, write bool) (Level, int) {
	first, last := lineSpan(addr, size)
	worstLevel := LevelL1
	worstLat := h.cfg.L1.LatencyCycle
	for lineAddr := first; lineAddr <= last; lineAddr++ {
		a := lineAddr << lineShift
		lvl, lat := h.below(a, h.l1.Access(a, write))
		// Strictly slower only: of two lines with equal latency the first
		// names the level.
		if lat > worstLat {
			worstLat = lat
			worstLevel = lvl
		}
	}
	return worstLevel, worstLat
}

// lineSpan returns the first and last line address an access of size bytes
// at addr covers (a size below one counts as one byte).
func lineSpan(addr uint64, size int) (first, last uint64) {
	if size <= 0 {
		size = 1
	}
	return addr >> lineShift, (addr + uint64(size) - 1) >> lineShift
}

// below completes a single-line access whose L1 outcome is r1: the L1
// victim's write-back, the prefetcher, the L2 and L3 lookups and the DRAM
// counters. Dirty victims are written back to the next level down; a dirty
// line falling out of L3 becomes a DRAM write. It never touches the L1,
// which is what lets several hierarchies share one (SharedL1).
func (h *Hierarchy) below(addr uint64, r1 AccessResult) (Level, int) {
	if r1.EvictedDirty {
		h.writebackBelow(LevelL2, r1.EvictedAddr)
	}
	if r1.Hit {
		return LevelL1, h.cfg.L1.LatencyCycle
	}
	// L1 miss: train the stream prefetcher.
	h.prefetch(addr >> lineShift)

	r2 := h.l2.Access(addr, false)
	if r2.EvictedDirty {
		h.writebackBelow(LevelL3, r2.EvictedAddr)
	}
	if r2.Hit {
		return LevelL2, h.cfg.L2.LatencyCycle
	}
	r3 := h.l3.Access(addr, false)
	if r3.EvictedDirty {
		h.MemWrites++
	}
	if r3.Hit {
		return LevelL3, h.cfg.L3.LatencyCycle
	}
	h.MemReads++
	return LevelMem, h.cfg.L3.LatencyCycle + h.cfg.MemLatencyCycle
}

// prefetch records an L1 miss to lineAddr and, when the previous line was
// missed recently (a stream), fills the next prefDegree lines into L2 and
// L3. Prefetch fills bypass demand statistics but do count as DRAM traffic.
func (h *Hierarchy) prefetch(lineAddr uint64) {
	if h.prefDegree == 0 {
		return
	}
	prev := lineAddr - 1
	streaming := h.recentMiss[prev&255] == prev
	h.recentMiss[lineAddr&255] = lineAddr
	if !streaming {
		return
	}
	for d := 1; d <= h.prefDegree; d++ {
		la := (lineAddr + uint64(d)) << lineShift
		res, inserted := h.l2.Insert(la)
		if !inserted {
			continue
		}
		if res.EvictedDirty {
			h.writebackBelow(LevelL3, res.EvictedAddr)
		}
		h.PrefetchFills++
		r3, ins3 := h.l3.Insert(la)
		if ins3 {
			if r3.EvictedDirty {
				h.MemWrites++
			}
			h.MemReads++
		}
		// Mark the line as recently missed so the stream keeps training.
		h.recentMiss[(lineAddr+uint64(d))&255] = lineAddr + uint64(d)
	}
}

// writebackBelow deposits a dirty line into the given level (or further down
// if absent there). Write-backs do not perturb demand statistics.
func (h *Hierarchy) writebackBelow(lvl Level, addr uint64) {
	if lvl <= LevelL2 && h.l2.MarkDirty(addr) {
		return
	}
	if lvl <= LevelL3 && h.l3.MarkDirty(addr) {
		return
	}
	h.MemWrites++
}

// ResetStats zeroes all level statistics and memory counters while keeping
// cache contents warm.
func (h *Hierarchy) ResetStats() {
	h.l1.ResetStats()
	h.l2.ResetStats()
	h.l3.ResetStats()
	h.MemReads, h.MemWrites, h.PrefetchFills = 0, 0, 0
}

// MemRequests returns the number of DRAM line requests generated (reads plus
// write-backs), the quantity plotted in Figure 1 as Giga-MemRequest/s once
// divided by runtime.
func (h *Hierarchy) MemRequests() int64 { return h.MemReads + h.MemWrites }

// SharedL1 walks one access stream through several hierarchies whose L1
// configurations are equal. Every hierarchy's L1 sees the same stream — only
// misses travel further down — so its contents and statistics are the same in
// all of them: SharedL1 keeps one L1, looks each line up there once and hands
// the outcome to every hierarchy's lower levels, which stay separate (their
// own L2, L3, prefetcher state, write-backs and DRAM counters). Each
// hierarchy answers exactly as it would walking the stream alone.
type SharedL1 struct {
	l1     *Cache
	hs     []*Hierarchy
	levels []Level
	lats   []int
}

// NewSharedL1 builds one hierarchy per configuration over a single L1. It
// panics when the configurations' L1s differ or there are none.
func NewSharedL1(cfgs []HierarchyConfig) *SharedL1 {
	if len(cfgs) == 0 {
		panic("cache: SharedL1 without hierarchies")
	}
	s := &SharedL1{
		l1:     New(cfgs[0].L1),
		hs:     make([]*Hierarchy, len(cfgs)),
		levels: make([]Level, len(cfgs)),
		lats:   make([]int, len(cfgs)),
	}
	for i, cfg := range cfgs {
		if cfg.L1 != cfgs[0].L1 {
			panic(fmt.Sprintf("cache: SharedL1 over L1 %+v and %+v", cfgs[0].L1, cfg.L1))
		}
		s.hs[i] = newHierarchy(cfg, s.l1)
	}
	return s
}

// Access performs one access on every hierarchy and returns the level each
// served it at, under Hierarchy.Access's slowest-line rule. The slice is
// reused by the next call.
func (s *SharedL1) Access(addr uint64, size int, write bool) []Level {
	first, last := lineSpan(addr, size)
	l1Lat := s.l1.cfg.LatencyCycle
	for i := range s.levels {
		s.levels[i], s.lats[i] = LevelL1, l1Lat
	}
	for lineAddr := first; lineAddr <= last; lineAddr++ {
		a := lineAddr << lineShift
		r1 := s.l1.Access(a, write)
		if r1.Hit {
			continue // an L1 hit evicts nothing and is L1 everywhere
		}
		for i, h := range s.hs {
			if lvl, lat := h.below(a, r1); lat > s.lats[i] {
				s.levels[i], s.lats[i] = lvl, lat
			}
		}
	}
	return s.levels
}

// Hierarchies returns the walked hierarchies in configuration order; their
// L1 statistics are the shared L1's.
func (s *SharedL1) Hierarchies() []*Hierarchy { return s.hs }

// ResetStats zeroes every hierarchy's statistics, keeping contents warm.
func (s *SharedL1) ResetStats() {
	for _, h := range s.hs {
		h.ResetStats()
	}
}
