package cache

// NewHierarchy builds the stack.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return newHierarchy(cfg, New(cfg.L1))
}

// MemRequests returns the number of DRAM line requests generated (reads plus
// write-backs), the quantity plotted in Figure 1 as Giga-MemRequest/s once
// divided by runtime.
func (h *Hierarchy) MemRequests() int64 { return h.MemReads + h.MemWrites }

// Contains reports whether the line holding addr is present, without
// updating LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	ways, tag := c.peek(addr >> lineShift)
	return find(ways, tag) >= 0
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// FootprintBytes returns the total footprint of the profile.
func (p LocalityProfile) FootprintBytes() int64 {
	var t int64
	for _, r := range p.Regions {
		t += r.Bytes
	}
	return t
}
