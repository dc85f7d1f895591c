package cpu

import "musa/internal/cache"

// ReferenceRunTiming exposes the test-only reference timing loop to the
// external test package, which needs internal/apps and internal/node (both
// import cpu) for the applications' real annotations.
var ReferenceRunTiming = referenceRunTiming

// MemRequestsPerCycle returns DRAM line requests per cycle.
func (r Result) MemRequestsPerCycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.MemReads+r.MemWrites) / float64(r.Cycles)
}

// MetaLanes unpacks the lane count of one meta word.
func MetaLanes(m uint32) uint8 { return uint8(m >> MetaLanesShift) }

// Latency returns the latency for a cache.Level value, the reference
// timing's lookup (the compiled replay selects by op word instead).
func (l LevelLatencies) Latency(level uint8) int64 {
	switch cache.Level(level) {
	case cache.LevelL1:
		return l.L1
	case cache.LevelL2:
		return l.L2
	case cache.LevelL3:
		return l.L3
	case cache.LevelMem:
		return l.Mem
	}
	return l.L1
}
