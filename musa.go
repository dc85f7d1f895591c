// Package musa is the public API of MUSA-Go, a from-scratch Go reproduction
// of "Design Space Exploration of Next-Generation HPC Machines" (Gómez et
// al., IPDPS 2019). It exposes the multi-scale simulation methodology —
// burst-mode scaling analysis, detailed node simulation, 256-rank MPI
// replay — and the paper's 864-point design-space exploration with power
// and energy estimation.
//
// Quick start — every scenario is one Experiment run through one Client:
//
//	client, _ := musa.NewClient(musa.ClientOptions{})
//	defer client.Close()
//	arch := musa.DefaultArch()
//	res, err := client.Run(context.Background(), musa.Experiment{
//		Kind: musa.KindNode, App: "lulesh", Arch: &arch,
//	})
//	fmt.Println(res.Measurement.TimeNs, res.Measurement.Power.Total(), err)
//
// See the examples/ directory, the Example tests and DESIGN.md for the full
// methodology.
package musa

import (
	"fmt"
	"strings"
	"sync"

	"musa/internal/apps"
	"musa/internal/core"
	"musa/internal/cpu"
	"musa/internal/dram"
	"musa/internal/dse"
	"musa/internal/net"
	"musa/internal/rts"
)

// Application is a workload model of one of the paper's five applications
// (or a custom one built with NewApplication).
type Application = apps.Profile

// App returns one of the built-in application models: "hydro", "spmz",
// "btmz", "spec3d" or "lulesh".
func App(name string) (*Application, error) { return apps.ByName(name) }

// Applications returns all five built-in models in the paper's order.
func Applications() []*Application { return apps.All() }

// Arch describes a compute-node architecture, mirroring Table I of the
// paper plus the unconventional extensions of Table II. The JSON tags are
// the wire form the HTTP API and the canonical experiment encoding use.
type Arch struct {
	// Cores per socket: 1, 32 or 64 in the paper's sweep.
	Cores int `json:"cores"`
	// CoreType is one of "lowend", "medium", "high", "aggressive".
	CoreType string `json:"coreType"`
	// FreqGHz: 1.5, 2.0, 2.5 or 3.0 in the sweep.
	FreqGHz float64 `json:"freqGHz"`
	// VectorBits: 128, 256, 512 (sweep); 64, 1024, 2048 (Table II).
	VectorBits int `json:"vectorBits"`
	// CacheLabel is "32M:256K", "64M:512K" or "96M:1M" (L3 total : L2 per
	// core).
	CacheLabel string `json:"cacheLabel"`
	// Channels is the DDR channel count (4 or 8; 16 for MEM+/MEM++).
	Channels int `json:"channels"`
	// HBM selects HBM2 instead of DDR4-2333 (the MEM++ configuration).
	HBM bool `json:"hbm,omitempty"`
}

// DefaultArch returns the mid-range reference configuration used by the
// characterization figure: 64 medium cores at 2 GHz, 128-bit SIMD,
// 64M:512K caches, 4-channel DDR4.
func DefaultArch() Arch {
	return Arch{
		Cores: 64, CoreType: "medium", FreqGHz: 2.0, VectorBits: 128,
		CacheLabel: "64M:512K", Channels: 4,
	}
}

// CacheLabels lists the valid Table I cache configuration labels
// (shared L3 total : private L2 per core).
func CacheLabels() []string {
	cfgs := dse.CacheConfigs()
	labels := make([]string, len(cfgs))
	for i, c := range cfgs {
		labels[i] = c.Label
	}
	return labels
}

// toPoint converts an Arch into the internal representation. Every failure
// wraps ErrBadArch — this is the one validation path shared by
// Experiment.Normalize and the HTTP layer.
func (a Arch) toPoint() (dse.ArchPoint, error) {
	coreCfg, err := cpu.ByName(a.CoreType)
	if err != nil {
		return dse.ArchPoint{}, fmt.Errorf("%w: %v", ErrBadArch, err)
	}
	var cacheCfg dse.CacheCfg
	found := false
	for _, c := range dse.CacheConfigs() {
		if c.Label == a.CacheLabel {
			cacheCfg = c
			found = true
			break
		}
	}
	if !found {
		return dse.ArchPoint{}, fmt.Errorf("%w: unknown cache label %q (valid: %s)",
			ErrBadArch, a.CacheLabel, strings.Join(CacheLabels(), ", "))
	}
	mem := dse.DDR4
	if a.HBM {
		mem = dse.HBM
	}
	p := dse.ArchPoint{
		Cores: a.Cores, Core: coreCfg, FreqGHz: a.FreqGHz,
		VectorBits: a.VectorBits, Cache: cacheCfg, Channels: a.Channels, Mem: mem,
	}
	// Validate the numeric knobs through the node config so an invalid
	// request becomes a typed error instead of a panic inside a simulation
	// worker.
	if err := p.NodeConfig(0, 0, 1).Validate(); err != nil {
		return dse.ArchPoint{}, fmt.Errorf("%w: %v", ErrBadArch, err)
	}
	return p, nil
}

// archOfPoint renders an internal grid point back into its public knobs.
func archOfPoint(p dse.ArchPoint) Arch {
	return Arch{
		Cores: p.Cores, CoreType: p.Core.Name, FreqGHz: p.FreqGHz,
		VectorBits: p.VectorBits, CacheLabel: p.Cache.Label,
		Channels: p.Channels, HBM: p.Mem == dse.HBM,
	}
}

// tableIGrid caches the enumerated Table I design space: the grid is
// immutable and index lookups (point resolution, /points rendering, sweep
// PointIndices validation) would otherwise rebuild all 864 points per call.
var tableIGrid = sync.OnceValue(dse.Enumerate)

// PointArch returns the public form of grid point i of the Table I design
// space (the /points HTTP listing and Experiment.PointIndex use the same
// indexing).
func PointArch(i int) (Arch, error) {
	grid := tableIGrid()
	if i < 0 || i >= len(grid) {
		return Arch{}, fmt.Errorf("%w: index %d out of range [0,%d)", ErrBadPoint, i, len(grid))
	}
	return archOfPoint(grid[i]), nil
}

// PointCount returns the size of the Table I design space (864).
func PointCount() int { return len(tableIGrid()) }

// PointLabel renders the compact label of grid point i (the same label
// measurements carry in Measurement.Arch.Label()).
func PointLabel(i int) (string, error) {
	grid := tableIGrid()
	if i < 0 || i >= len(grid) {
		return "", fmt.Errorf("%w: index %d out of range [0,%d)", ErrBadPoint, i, len(grid))
	}
	return grid[i].Label(), nil
}

// SimOptions tune simulation fidelity and determinism.
type SimOptions struct {
	// SampleInstrs is the detailed sample length in scalar micro-ops
	// (0 = default, 300k). WarmupInstrs streams through the caches first
	// (0 = 2x sample).
	SampleInstrs int64
	WarmupInstrs int64
	Seed         uint64
}

func (o SimOptions) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// NetworkModel is the Dimemas-like interconnect model.
type NetworkModel = net.Model

// MareNostrumNetwork returns the MareNostrum IV-class network model used in
// the paper's full-application simulations.
func MareNostrumNetwork() NetworkModel { return net.MareNostrum4() }

// NetworkByName resolves a named network scenario: "mn4" (MareNostrum IV,
// the default), "hdr200" (200 Gb/s InfiniBand) or "eth10" (commodity
// 10 GbE).
func NetworkByName(name string) (NetworkModel, error) { return net.ByName(name) }

// NetworkNames lists the named network scenarios.
func NetworkNames() []string { return net.ModelNames() }

// FullAppResult couples node simulation and the cross-rank MPI replay.
type FullAppResult = core.DetailedResult

// RegionScaling runs the hardware-agnostic burst-mode scaling analysis of a
// single compute region (Fig. 2a): speedups versus one core.
func RegionScaling(app *Application, coreCounts []int) []float64 {
	return core.RegionScaling(app, coreCounts, core.DefaultBurstOptions())
}

// FullAppScalingResult is one core-count point of the Fig. 2b analysis.
type FullAppScalingResult = core.FullAppResult

// NewApplication validates and returns a custom application model; see the
// examples/custom_app example for the knobs.
func NewApplication(p Application) (*Application, error) {
	cp := p
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return &cp, nil
}

// Ensure internal types referenced by Arch stay linked.
var (
	_ = dram.DDR4_2333
	_ = rts.FIFOCentral
)
