// Package apps models the five HPC applications of the paper's evaluation:
// HYDRO, the SP-MZ and BT-MZ NAS multi-zone benchmarks, Specfem3D and
// LULESH. The originals are MPI+OpenMP/OmpSs codes traced on BSC machines;
// here each application is a parametric workload profile (see DESIGN.md §2
// and §4) from which the package synthesizes MUSA's two trace levels:
//
//   - burst traces (task graphs per compute region + MPI events per rank),
//   - detailed instruction streams (instruction mix, vectorizable loop
//     structure, dependency distances, and a memory-locality profile).
//
// The profile parameters are calibrated against the paper's measured
// characterization: Fig. 1 (cache MPKIs and memory request rates), Fig. 2
// (scaling behavior), and the per-application sensitivities of Figs. 5-9.
package apps

import (
	"fmt"

	"musa/internal/cache"
)

// RefLaneThroughput is the reference machine's scalar-lane throughput
// (lanes/second) used to convert task lane-work into traced burst durations:
// roughly IPC 2 at 2 GHz, the MareNostrum-class node MUSA was validated on.
const RefLaneThroughput = 4e9

// Mix gives the fraction of dynamic scalar micro-ops per class. Fields need
// not sum exactly to 1; they are normalized on use.
type Mix struct {
	Load, Store                float64
	FPAdd, FPMul, FPFMA, FPDiv float64
	IntALU, IntMul, Branch     float64
}

func (m Mix) total() float64 {
	return m.Load + m.Store + m.FPAdd + m.FPMul + m.FPFMA + m.FPDiv + m.IntALU + m.IntMul + m.Branch
}

// VectorProfile describes how much of the code lives in vectorizable loops
// and how long those loops run — the paper's fusion model only widens SIMD
// for basic blocks that repeat many times in a row (§III).
type VectorProfile struct {
	// VecFrac is the fraction of loop work residing in vectorizable loops.
	VecFrac float64
	// TripCount is the typical consecutive iteration count of those loops.
	// LULESH's very short loops (the paper: "loops with a very short
	// iteration count") defeat wide fusion.
	TripCount int
}

// DepProfile controls instruction-level parallelism: the probability that an
// FP op extends a loop-carried dependence chain (high = serial, low = lots
// of independent work for the OoO window to find).
type DepProfile struct {
	// ChainProb is the probability a vector loop carries an FP accumulation
	// chain across iterations.
	ChainProb float64
	// LoadChainProb is the probability a loop is a pointer-chase: each
	// iteration's load depends on the previous one, serializing memory
	// latency (these loops cannot vectorize). It sets how much cache-level
	// latency shows up directly in execution time.
	LoadChainProb float64
}

// RegionSpec describes one compute region's parallel structure per rank.
type RegionSpec struct {
	Name string
	// Tasks per region instance. Fewer tasks than cores leaves threads idle
	// (Specfem3D in Fig. 3).
	Tasks int
	// LanesPerTask is the scalar-lane work of one task.
	LanesPerTask float64
	// ImbalanceCV is the coefficient of variation of task durations
	// (LULESH's thread-level imbalance).
	ImbalanceCV float64
	// SerialFrac is the fraction of region work serialized on the master
	// thread (non-taskified segments).
	SerialFrac float64
	// CriticalFrac is the fraction of each task spent in a global critical
	// section.
	CriticalFrac float64
}

// LaneWork returns the region's total lane work per rank (tasks + serial).
func (r RegionSpec) LaneWork() float64 {
	w := float64(r.Tasks) * r.LanesPerTask
	return w / (1 - r.SerialFrac)
}

// MPIPattern describes a rank's communication per iteration.
type MPIPattern struct {
	// Neighbors is the number of point-to-point partners (ring/stencil).
	Neighbors int
	// P2PBytes is the bytes exchanged with each neighbor per iteration.
	P2PBytes int64
	// AllReduces per iteration (each also acts as a global barrier).
	AllReduces int
	// AllReduceBytes is the payload of each reduction.
	AllReduceBytes int64
	// RankImbalanceCV spreads per-rank compute durations; combined with the
	// collectives it produces the barrier waiting the paper shows in Fig. 4.
	RankImbalanceCV float64
}

// Profile is a complete application model.
type Profile struct {
	Name string

	Mix    Mix
	Vector VectorProfile
	Dep    DepProfile
	// MispredictRate is the branch misprediction probability.
	MispredictRate float64
	// ChaseRegion names the locality region pointer-chase loops walk
	// (empty: draw from the whole profile). Pointing it at a region that
	// straddles the swept cache sizes makes the application cache-latency
	// sensitive, as HYDRO is in the paper.
	ChaseRegion string
	// Locality is the per-core memory locality model (region footprints are
	// per-core shares at the 256-rank reference decomposition).
	Locality cache.LocalityProfile

	// Regions executed once per iteration, in order.
	Regions []RegionSpec
	// Iterations is the number of timesteps in the traced execution.
	Iterations int

	MPI MPIPattern
}

// Validate reports profile errors.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("apps: empty name")
	}
	if p.Mix.total() <= 0 {
		return fmt.Errorf("apps: %s has an empty instruction mix", p.Name)
	}
	if err := p.Locality.Validate(); err != nil {
		return fmt.Errorf("apps: %s: %w", p.Name, err)
	}
	if len(p.Regions) == 0 || p.Iterations <= 0 {
		return fmt.Errorf("apps: %s has no regions/iterations", p.Name)
	}
	for _, r := range p.Regions {
		if r.Tasks <= 0 || r.LanesPerTask <= 0 {
			return fmt.Errorf("apps: %s region %s has no work", p.Name, r.Name)
		}
		if r.SerialFrac < 0 || r.SerialFrac >= 1 {
			return fmt.Errorf("apps: %s region %s serial fraction %v", p.Name, r.Name, r.SerialFrac)
		}
	}
	if p.Vector.TripCount < 1 {
		return fmt.Errorf("apps: %s trip count %d", p.Name, p.Vector.TripCount)
	}
	return nil
}

// LaneWorkPerRank returns the total lane work of one rank's full execution.
func (p *Profile) LaneWorkPerRank() float64 {
	var w float64
	for _, r := range p.Regions {
		w += r.LaneWork()
	}
	return w * float64(p.Iterations)
}

const (
	kb = 1024
	mb = 1024 * 1024
)

// Hydro models HYDRO (a simplified RAMSES: compressible Euler equations,
// Godunov method). Paper traits: the only app above 75% parallel efficiency
// at 64 cores; main working set under 512 kB per core (4x L2 MPKI drop when
// the L2 grows past it); +20% from 512-bit SIMD; fine-grained tasks that
// expose the runtime dispatch bottleneck above 2.5 GHz; very low memory
// bandwidth demand.
func Hydro() *Profile {
	return &Profile{
		Name: "hydro",
		Mix: Mix{
			Load: 0.215, Store: 0.075,
			FPAdd: 0.12, FPMul: 0.10, FPFMA: 0.06, FPDiv: 0.004,
			IntALU: 0.27, IntMul: 0.01, Branch: 0.14,
		},
		Vector:         VectorProfile{VecFrac: 0.50, TripCount: 48},
		Dep:            DepProfile{ChainProb: 0.60, LoadChainProb: 0.008},
		MispredictRate: 0.004,
		ChaseRegion:    "ws",
		Locality: cache.LocalityProfile{Regions: []cache.Region{
			{Name: "hot", Bytes: 16 * kb, Weight: 0.810, Pattern: cache.RandomLine, WriteFrac: 0.25},
			{Name: "ws", Bytes: 384 * kb, Weight: 0.120, Pattern: cache.Sequential, WriteFrac: 0.25},
			{Name: "mid", Bytes: 256 * kb, Weight: 0.022, Pattern: cache.RandomBlock, WriteFrac: 0.2},
			{Name: "stream", Bytes: 512 * mb, Weight: 0.003, Pattern: cache.Sequential, WriteFrac: 0.3},
		}},
		Regions: []RegionSpec{{
			Name: "godunov", Tasks: 2048, LanesPerTask: 24000,
			ImbalanceCV: 0.12, SerialFrac: 0.004,
		}},
		Iterations: 4,
		MPI: MPIPattern{
			Neighbors: 2, P2PBytes: 256 * kb,
			AllReduces: 1, AllReduceBytes: 8,
			RankImbalanceCV: 0.05,
		},
	}
}

// SPMZ models the NAS SP-MZ multi-zone benchmark (diagonalized ADI solver).
// Paper traits: the most vectorizable code (+75% at 512-bit); no serialized
// segments but too few tasks to fill 64 cores; high cache MPKIs; would be
// bandwidth-hungry if it scaled.
func SPMZ() *Profile {
	return &Profile{
		Name: "spmz",
		Mix: Mix{
			Load: 0.28, Store: 0.09,
			FPAdd: 0.14, FPMul: 0.12, FPFMA: 0.08, FPDiv: 0.002,
			IntALU: 0.17, IntMul: 0.01, Branch: 0.10,
		},
		Vector:         VectorProfile{VecFrac: 0.92, TripCount: 128},
		Dep:            DepProfile{ChainProb: 0.55, LoadChainProb: 0.002},
		MispredictRate: 0.002,
		ChaseRegion:    "hot",
		Locality: cache.LocalityProfile{Regions: []cache.Region{
			{Name: "hot", Bytes: 24 * kb, Weight: 0.55, Pattern: cache.RandomLine, WriteFrac: 0.25},
			{Name: "pencil", Bytes: 224 * kb, Weight: 0.32, Pattern: cache.RandomLine, WriteFrac: 0.25},
			{Name: "plane", Bytes: 2560 * kb, Weight: 0.06, Pattern: cache.RandomBlock, Stride: 16, WriteFrac: 0.25},
			{Name: "zone", Bytes: 10 * mb, Weight: 0.008, Pattern: cache.RandomBlock, Stride: 64, WriteFrac: 0.2},
			{Name: "stream", Bytes: 1024 * mb, Weight: 0.008, Pattern: cache.Sequential, WriteFrac: 0.3},
		}},
		Regions: []RegionSpec{{
			Name: "adi-sweep", Tasks: 72, LanesPerTask: 1.6e6,
			ImbalanceCV: 0.15, SerialFrac: 0,
		}},
		Iterations: 4,
		MPI: MPIPattern{
			Neighbors: 4, P2PBytes: 4096 * kb,
			AllReduces: 2, AllReduceBytes: 64,
			RankImbalanceCV: 0.22,
		},
	}
}

// BTMZ models the NAS BT-MZ multi-zone benchmark (block-tridiagonal solver).
// Paper traits: compute-intensive power profile; ~40% SIMD gain; 9% speedup
// from bigger caches; important serialized segments.
func BTMZ() *Profile {
	return &Profile{
		Name: "btmz",
		Mix: Mix{
			Load: 0.24, Store: 0.08,
			FPAdd: 0.13, FPMul: 0.12, FPFMA: 0.09, FPDiv: 0.003,
			IntALU: 0.21, IntMul: 0.01, Branch: 0.11,
		},
		Vector:         VectorProfile{VecFrac: 0.76, TripCount: 64},
		Dep:            DepProfile{ChainProb: 0.60, LoadChainProb: 0.0012},
		MispredictRate: 0.003,
		ChaseRegion:    "mid",
		Locality: cache.LocalityProfile{Regions: []cache.Region{
			{Name: "hot", Bytes: 20 * kb, Weight: 0.56, Pattern: cache.RandomLine, WriteFrac: 0.25},
			{Name: "mid", Bytes: 120 * kb, Weight: 0.10, Pattern: cache.RandomLine, WriteFrac: 0.25},
			{Name: "block", Bytes: 300 * kb, Weight: 0.30, Pattern: cache.Sequential, WriteFrac: 0.25},
			{Name: "zone", Bytes: 900 * kb, Weight: 0.003, Pattern: cache.RandomBlock, Stride: 32, WriteFrac: 0.2},
			{Name: "stream", Bytes: 768 * mb, Weight: 0.006, Pattern: cache.Sequential, WriteFrac: 0.3},
		}},
		Regions: []RegionSpec{{
			Name: "bt-solve", Tasks: 120, LanesPerTask: 1.0e6,
			ImbalanceCV: 0.20, SerialFrac: 0.012,
		}},
		Iterations: 4,
		MPI: MPIPattern{
			Neighbors: 4, P2PBytes: 3584 * kb,
			AllReduces: 2, AllReduceBytes: 64,
			RankImbalanceCV: 0.20,
		},
	}
}

// Spec3D models Specfem3D (continuous Galerkin spectral-element seismic wave
// propagation). Paper traits: worst task-level parallelism — most threads
// idle (Fig. 3); the most OoO-sensitive code (60% slower on low-end cores);
// cache-size insensitive; high bandwidth demand per core yet no gain from
// extra channels at scale because few cores are busy.
func Spec3D() *Profile {
	return &Profile{
		Name: "spec3d",
		Mix: Mix{
			Load: 0.30, Store: 0.06,
			FPAdd: 0.10, FPMul: 0.10, FPFMA: 0.12, FPDiv: 0.004,
			IntALU: 0.20, IntMul: 0.005, Branch: 0.11,
		},
		Vector:         VectorProfile{VecFrac: 0.58, TripCount: 36},
		Dep:            DepProfile{ChainProb: 0.12, LoadChainProb: 0.0015},
		MispredictRate: 0.002,
		ChaseRegion:    "hot",
		Locality: cache.LocalityProfile{Regions: []cache.Region{
			{Name: "hot", Bytes: 14 * kb, Weight: 0.46, Pattern: cache.RandomLine, WriteFrac: 0.2},
			{Name: "elem", Bytes: 160 * kb, Weight: 0.10, Pattern: cache.RandomLine, WriteFrac: 0.2},
			{Name: "mesh", Bytes: 64 * mb, Weight: 0.025, Pattern: cache.RandomBlock, Stride: 32, WriteFrac: 0.15},
			{Name: "stream", Bytes: 2048 * mb, Weight: 0.02, Pattern: cache.Sequential, WriteFrac: 0.25},
		}},
		Regions: []RegionSpec{{
			Name: "se-kernel", Tasks: 40, LanesPerTask: 2.4e6,
			ImbalanceCV: 0.42, SerialFrac: 0.030,
		}},
		Iterations: 4,
		MPI: MPIPattern{
			Neighbors: 6, P2PBytes: 2560 * kb,
			AllReduces: 2, AllReduceBytes: 32,
			RankImbalanceCV: 0.20,
		},
	}
}

// LULESH models LULESH 2.0 (unstructured Lagrangian shock hydrodynamics).
// Paper traits: memory bound — +60% from 8 DDR4 channels at 64 cores and
// ~30% energy savings; no SIMD gain (short loops); thread-level load
// imbalance limits 64-core scaling; heavy MPI barrier waiting (Fig. 4).
func LULESH() *Profile {
	return &Profile{
		Name: "lulesh",
		Mix: Mix{
			Load: 0.32, Store: 0.12,
			FPAdd: 0.12, FPMul: 0.10, FPFMA: 0.04, FPDiv: 0.010,
			IntALU: 0.18, IntMul: 0.01, Branch: 0.10,
		},
		Vector:         VectorProfile{VecFrac: 0.45, TripCount: 3},
		Dep:            DepProfile{ChainProb: 0.55, LoadChainProb: 0.0015},
		MispredictRate: 0.005,
		ChaseRegion:    "ws",
		Locality: cache.LocalityProfile{Regions: []cache.Region{
			{Name: "hot", Bytes: 16 * kb, Weight: 0.57, Pattern: cache.RandomLine, WriteFrac: 0.3},
			{Name: "ws", Bytes: 400 * kb, Weight: 0.10, Pattern: cache.Sequential, WriteFrac: 0.3},
			{Name: "nodal", Bytes: 5 * mb, Weight: 0.04, Pattern: cache.RandomBlock, Stride: 32, WriteFrac: 0.25},
			{Name: "stream", Bytes: 48 * mb, Weight: 0.14, Pattern: cache.Sequential, WriteFrac: 0.35},
		}},
		Regions: []RegionSpec{{
			Name: "lagrange", Tasks: 128, LanesPerTask: 0.9e6,
			ImbalanceCV: 0.45, SerialFrac: 0.010,
		}},
		Iterations: 4,
		MPI: MPIPattern{
			Neighbors: 6, P2PBytes: 1536 * kb,
			AllReduces: 3, AllReduceBytes: 16,
			RankImbalanceCV: 0.25,
		},
	}
}

// builtins maps each application's paper label to its constructor.
var builtins = map[string]func() *Profile{
	"hydro": Hydro, "spmz": SPMZ, "btmz": BTMZ, "spec3d": Spec3D, "lulesh": LULESH,
}

// All returns the five applications in the paper's plotting order.
func All() []*Profile {
	return []*Profile{Hydro(), SPMZ(), BTMZ(), Spec3D(), LULESH()}
}

// ByName looks an application up by its paper label and constructs that one
// profile; the caller owns it.
func ByName(name string) (*Profile, error) {
	if build := builtins[name]; build != nil {
		return build(), nil
	}
	return nil, fmt.Errorf("apps: unknown application %q (have hydro, spmz, btmz, spec3d, lulesh)", name)
}

// IsBuiltin reports whether name is one of the five applications, without
// constructing a profile — the question request validation and key
// derivation ask on every request.
func IsBuiltin(name string) bool { return builtins[name] != nil }
