package cache

// NewHierarchy builds the stack.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return newHierarchy(cfg, New(cfg.L1))
}

// MemRequests returns the number of DRAM line requests generated (reads plus
// write-backs), the quantity plotted in Figure 1 as Giga-MemRequest/s once
// divided by runtime.
func (h *Hierarchy) MemRequests() int64 { return h.MemReads + h.MemWrites }
