// Package core orchestrates MUSA's multi-level simulation modes (paper §II):
//
//   - Burst mode ("hardware agnostic", §V-A): replays burst-trace task
//     graphs through the runtime-system simulator at a chosen core count,
//     with durations taken directly from the trace — no cache, memory or
//     core microarchitecture effects. Used for the Fig. 2 scaling study.
//   - Detailed mode: node-level detailed simulation (internal/node) rescales
//     the trace's compute durations, after which the Dimemas-like replay
//     (internal/net) integrates the 256-rank communication trace.
package core

import (
	"context"

	"musa/internal/apps"
	"musa/internal/net"
	"musa/internal/node"
	"musa/internal/power"
	"musa/internal/rts"
	"musa/internal/trace"
)

// BurstOptions configures burst-mode simulations.
type BurstOptions struct {
	// DispatchNs is the runtime-system per-task dispatch cost.
	DispatchNs float64
	// Policy is the task scheduler.
	Policy rts.Policy
	// Seed drives the deterministic trace synthesis.
	Seed uint64
}

// DefaultBurstOptions matches the traced runtime (Nanos++-style central
// queue, ~100 ns dispatch).
func DefaultBurstOptions() BurstOptions {
	return BurstOptions{DispatchNs: 100, Policy: rts.FIFOCentral, Seed: 1}
}

// RegionScaling simulates a single representative compute region of the
// application on the given core counts (Fig. 2a): hardware-agnostic, no MPI.
// It returns the speedup versus one core for each requested core count.
func RegionScaling(app *apps.Profile, coreCounts []int, opts BurstOptions) []float64 {
	g := app.RegionGraph(0, opts.Seed)
	base := rts.Simulate(g, rts.Options{Threads: 1, DispatchNs: opts.DispatchNs, Policy: opts.Policy})
	out := make([]float64, len(coreCounts))
	for i, c := range coreCounts {
		s := rts.Simulate(g, rts.Options{Threads: c, DispatchNs: opts.DispatchNs, Policy: opts.Policy})
		out[i] = base.MakespanNs / s.MakespanNs
	}
	return out
}

// FullAppResult is the outcome of a whole-application replay.
type FullAppResult struct {
	MakespanNs  float64
	Speedup     float64 // vs the same replay with 1 core per node
	Efficiency  float64 // speedup / cores
	MPIFraction float64
	Replay      net.Result
}

// FullAppScalingCtx simulates the whole parallel region including MPI
// overheads (Fig. 2b): the burst trace of `ranks` ranks is replayed with per-node
// compute durations rescaled by the node-level speedup obtained from the
// runtime-system simulation at each core count. Every replay pass has a
// cancellation checkpoint; a canceled ctx returns ctx.Err().
func FullAppScalingCtx(ctx context.Context, app *apps.Profile, ranks int, coreCounts []int, model net.Model, opts BurstOptions) ([]FullAppResult, error) {
	prog, err := net.Compile(apps.BurstTrace(app, ranks, opts.Seed))
	if err != nil {
		panic(err) // the application models produce valid traces
	}

	makespanAt := func(cores int) (float64, net.Result, error) {
		speedup := nodeSpeedup(app, cores, opts)
		res, err := prog.Replay(ctx, model, func(rank int, traced float64) float64 {
			return traced / speedup
		})
		return res.MakespanNs, res, err
	}

	base, _, err := makespanAt(1)
	if err != nil {
		return nil, err
	}
	out := make([]FullAppResult, len(coreCounts))
	for i, c := range coreCounts {
		mk, rep, err := makespanAt(c)
		if err != nil {
			return nil, err
		}
		out[i] = FullAppResult{
			MakespanNs:  mk,
			Speedup:     base / mk,
			Efficiency:  base / mk / float64(c),
			MPIFraction: rep.MPIFraction(),
			Replay:      rep,
		}
	}
	return out, nil
}

// nodeSpeedup returns the burst-mode node-level speedup of the application's
// per-iteration compute at the given core count.
func nodeSpeedup(app *apps.Profile, cores int, opts BurstOptions) float64 {
	var serial, parallel float64
	for ri := range app.Regions {
		g := app.RegionGraph(ri, opts.Seed)
		s1 := rts.Simulate(g, rts.Options{Threads: 1, DispatchNs: opts.DispatchNs, Policy: opts.Policy})
		sN := rts.Simulate(g, rts.Options{Threads: cores, DispatchNs: opts.DispatchNs, Policy: opts.Policy})
		serial += s1.MakespanNs
		parallel += sN.MakespanNs
	}
	if parallel <= 0 {
		return 1
	}
	return serial / parallel
}

// DetailedResult couples node-level detailed simulation with the full
// communication replay and system-level power/energy.
type DetailedResult struct {
	Node   node.Result
	Replay net.Result
	// MakespanNs is the full-application makespan across all ranks.
	MakespanNs float64
	// NodeAvgPowerW is the time-averaged per-node power including MPI wait
	// phases (leakage and DRAM background keep burning while waiting).
	NodeAvgPowerW float64
	// SystemEnergyJ is ranks x node energy over the makespan.
	SystemEnergyJ float64
}

// DetailedFullAppCtx runs detailed mode end to end: node simulation, then
// the 256-rank replay with compute rescaled by the measured node
// performance. The replay stage is a cancellation checkpoint: it returns
// ctx.Err() when canceled.
func DetailedFullAppCtx(ctx context.Context, app *apps.Profile, cfg node.Config, ranks int, model net.Model) (DetailedResult, error) {
	nres := node.Simulate(app, cfg)

	// Traced per-iteration duration (what BurstTrace wrote per rank).
	scale := nres.IterationNs / app.TracedIterationNs()

	b := apps.BurstTrace(app, ranks, cfg.Seed)
	rep, err := net.ReplayCtx(ctx, b, model, func(rank int, traced float64) float64 {
		return traced * scale
	})
	if err != nil {
		return DetailedResult{}, err
	}

	// Power: active compute power over compute time, idle power (zero
	// activity: leakage + DRAM background) over the MPI-wait remainder.
	idle := power.NodePower(nodeParams(cfg), power.Activity{Duration: 1})
	makespan := rep.MakespanNs
	computeNs := nres.ComputeNs
	if computeNs > makespan {
		computeNs = makespan
	}
	waitNs := makespan - computeNs
	var avgW float64
	if makespan > 0 {
		avgW = (nres.Power.Total()*computeNs + idle.Total()*waitNs) / makespan
	}
	return DetailedResult{
		Node:          nres,
		Replay:        rep,
		MakespanNs:    makespan,
		NodeAvgPowerW: avgW,
		SystemEnergyJ: avgW * makespan * 1e-9 * float64(ranks),
	}, nil
}

// nodeParams converts a node.Config into power model parameters.
func nodeParams(cfg node.Config) power.NodeParams {
	return power.NodeParams{
		Cores: cfg.Cores,
		Core: power.CoreParams{
			Config:     cfg.Core,
			VectorBits: cfg.VectorBits,
			FreqGHz:    cfg.FreqGHz,
		},
		L2PerCoreMB: float64(cfg.L2KBPerCore) / 1024,
		L3TotalMB:   float64(cfg.L3MBTotal),
		DIMMs:       cfg.DIMMs(),
	}
}

// Exported for the trace tooling: SampleBurst produces the burst trace used
// by the timeline utilities (Figs. 3 and 4).
func SampleBurst(app *apps.Profile, ranks int, seed uint64) *trace.Burst {
	return apps.BurstTrace(app, ranks, seed)
}
