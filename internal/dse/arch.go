// Package dse implements the paper's design-space exploration: the Table I
// parameter grid (864 configurations), a parallel sweep runner that reuses
// cache annotations and DRAM latency models across configurations, the
// normalization/averaging methodology of §V-B, and the aggregations behind
// every evaluation figure (Figs. 5-11, Table II) plus the PCA of §V-C.
package dse

import (
	"strconv"

	"musa/internal/cpu"
	"musa/internal/dram"
	"musa/internal/node"
	"musa/internal/rts"
)

// CacheCfg is one Table I cache configuration (shared L3 : private L2).
type CacheCfg struct {
	Label string
	L2KB  int
	L3MB  int
}

// CacheConfigs returns the three Table I cache points.
func CacheConfigs() []CacheCfg {
	return []CacheCfg{
		{Label: "32M:256K", L2KB: 256, L3MB: 32},
		{Label: "64M:512K", L2KB: 512, L3MB: 64},
		{Label: "96M:1M", L2KB: 1024, L3MB: 96},
	}
}

// Frequencies returns the Table I clock grid in GHz.
func Frequencies() []float64 { return []float64{1.5, 2.0, 2.5, 3.0} }

// VectorWidths returns the Table I SIMD grid in bits.
func VectorWidths() []int { return []int{128, 256, 512} }

// CoreCounts returns the Table I per-socket core counts.
func CoreCounts() []int { return []int{1, 32, 64} }

// ChannelCounts returns the Table I DDR4 channel options.
func ChannelCounts() []int { return []int{4, 8} }

// MemKind selects the DRAM standard (Table II's MEM++ uses HBM).
type MemKind int

const (
	DDR4 MemKind = iota
	HBM
)

func (m MemKind) String() string {
	if m == HBM {
		return "HBM"
	}
	return "DDR4"
}

// Spec returns the dram.Spec for the kind.
func (m MemKind) Spec() dram.Spec {
	if m == HBM {
		return dram.HBM2()
	}
	return dram.DDR4_2333()
}

// ArchPoint is one architectural configuration of the sweep.
type ArchPoint struct {
	Cores      int
	Core       cpu.Config
	FreqGHz    float64
	VectorBits int
	Cache      CacheCfg
	Channels   int
	Mem        MemKind
}

// Label renders the configuration compactly.
func (a ArchPoint) Label() string {
	var b [48]byte
	return string(a.AppendLabel(b[:0]))
}

// AppendLabel appends the point's label to dst: "%dc/%s/%.1fGHz/%db/%s/%dch%s",
// field by field. Every /simulate reply and every span of a sweep point
// carries one; the reply appends it in place.
func (a ArchPoint) AppendLabel(dst []byte) []byte {
	b := append(strconv.AppendInt(dst, int64(a.Cores), 10), "c/"...)
	b = append(append(b, a.Core.Name...), '/')
	b = append(strconv.AppendFloat(b, a.FreqGHz, 'f', 1, 64), "GHz/"...)
	b = append(strconv.AppendInt(b, int64(a.VectorBits), 10), "b/"...)
	b = append(append(b, a.Cache.Label...), '/')
	b = append(strconv.AppendInt(b, int64(a.Channels), 10), "ch"...)
	return append(b, a.Mem.String()...)
}

// NodeConfig converts the point into a node simulator configuration.
func (a ArchPoint) NodeConfig(sampleInstrs, warmupInstrs int64, seed uint64) node.Config {
	return node.Config{
		Cores:        a.Cores,
		Core:         a.Core,
		FreqGHz:      a.FreqGHz,
		VectorBits:   a.VectorBits,
		L2KBPerCore:  a.Cache.L2KB,
		L3MBTotal:    a.Cache.L3MB,
		Mem:          dram.Config{Spec: a.Mem.Spec(), Channels: a.Channels},
		DRAMPolicy:   dram.FRFCFS,
		DispatchNs:   100,
		RTSPolicy:    rts.FIFOCentral,
		SampleInstrs: sampleInstrs,
		WarmupInstrs: warmupInstrs,
		Seed:         seed,
	}
}

// Enumerate returns the full Table I design space: 3 core counts x 4 core
// types x 4 frequencies x 3 vector widths x 3 cache configs x 2 channel
// counts = 864 configurations.
func Enumerate() []ArchPoint {
	var out []ArchPoint
	for _, cores := range CoreCounts() {
		for _, core := range cpu.AllConfigs() {
			for _, f := range Frequencies() {
				for _, v := range VectorWidths() {
					for _, c := range CacheConfigs() {
						for _, ch := range ChannelCounts() {
							out = append(out, ArchPoint{
								Cores: cores, Core: core, FreqGHz: f,
								VectorBits: v, Cache: c, Channels: ch, Mem: DDR4,
							})
						}
					}
				}
			}
		}
	}
	return out
}
