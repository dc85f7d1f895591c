package cache

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
	deg := cfg.PrefetchDegree
	if deg == 0 {
		deg = 4
	}
	if deg < 0 {
		deg = 0
	}
	return &Hierarchy{
		cfg:        cfg,
		l1:         New(cfg.L1),
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
	if size <= 0 {
		size = 1
	}
	first := addr >> lineShift
	last := (addr + uint64(size) - 1) >> lineShift
	worstLevel := LevelL1
	worstLat := h.cfg.L1.LatencyCycle
	for lineAddr := first; lineAddr <= last; lineAddr++ {
		lvl, lat := h.accessLine(lineAddr<<lineShift, write)
		if lat > worstLat {
			worstLat = lat
			worstLevel = lvl
		}
	}
	return worstLevel, worstLat
}

// accessLine performs a single-line access through the stack. Dirty victims
// are written back to the next level down; a dirty line falling out of L3
// becomes a DRAM write.
func (h *Hierarchy) accessLine(addr uint64, write bool) (Level, int) {
	r1 := h.l1.Access(addr, write)
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
