// custom_app: model your own application and run it through the simulator.
// The workload model is fully parametric — instruction mix, vectorizable
// loop structure, memory locality, task-level parallelism and MPI pattern —
// so a new code can be characterized without any tracing infrastructure.
//
// Here we model a fictional "smoother": a memory-streaming stencil with
// good vectorization, abundant fine-grained tasks, and light communication.
// The profile is registered on a musa.Client, after which every experiment
// kind can name it like a built-in (store keys embed the profile content,
// so caching stays sound).
package main

import (
	"context"
	"fmt"
	"log"

	"musa"
	"musa/internal/apps"
	"musa/internal/cache"
)

func main() {
	client, err := musa.NewClient(musa.ClientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	if err := client.RegisterApplication(smoother()); err != nil {
		log.Fatal(err)
	}

	node := func(arch musa.Arch) *musa.Measurement {
		res, err := client.Run(ctx, musa.Experiment{
			Kind: musa.KindNode, App: "smoother", Arch: &arch,
			Sample: 120000, Warmup: 600000, Seed: 1, NoReplay: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res.Measurement
	}

	base := node(musa.DefaultArch())
	fmt.Printf("baseline: %.2f ms, %.1f W, %.1f busy cores\n",
		base.TimeNs/1e6, base.Power.Total(), base.ActiveCores)

	// Which lever helps this code? Try wide SIMD vs more channels.
	wide := musa.DefaultArch()
	wide.VectorBits = 512
	channels := musa.DefaultArch()
	channels.Channels = 8

	rw := node(wide)
	rc := node(channels)
	fmt.Printf("512-bit SIMD:   %.2fx speedup, %.2fx energy\n",
		base.TimeNs/rw.TimeNs, rw.EnergyJ/base.EnergyJ)
	fmt.Printf("8 channels:     %.2fx speedup, %.2fx energy\n",
		base.TimeNs/rc.TimeNs, rc.EnergyJ/base.EnergyJ)

	// Full system run on 32 ranks.
	fres, err := client.Run(ctx, musa.Experiment{
		Kind: musa.KindFullApp, App: "smoother", Arch: &wide,
		Sample: 120000, Warmup: 600000, Seed: 1, Ranks: 32,
	})
	if err != nil {
		log.Fatal(err)
	}
	full := fres.FullApp
	fmt.Printf("32-rank run:    %.2f ms makespan, %.0f%% efficiency, %.0f J system energy\n",
		full.MakespanNs/1e6, 100*full.Replay.AvgParallelEfficiency(), full.SystemEnergyJ)
}

// smoother is the application's workload model.
func smoother() musa.Application {
	return musa.Application{
		Name: "smoother",
		Mix: apps.Mix{
			Load: 0.30, Store: 0.10,
			FPAdd: 0.15, FPMul: 0.12, FPFMA: 0.08,
			IntALU: 0.15, Branch: 0.10,
		},
		// Long vectorizable loops: wide SIMD should pay off.
		Vector: apps.VectorProfile{VecFrac: 0.85, TripCount: 96},
		Dep:    apps.DepProfile{ChainProb: 0.4},
		Locality: cache.LocalityProfile{Regions: []cache.Region{
			{Name: "hot", Bytes: 24 * 1024, Weight: 0.55, Pattern: cache.RandomLine, WriteFrac: 0.25},
			{Name: "plane", Bytes: 300 * 1024, Weight: 0.35, Pattern: cache.Sequential, WriteFrac: 0.3},
			{Name: "grid", Bytes: 64 << 20, Weight: 0.10, Pattern: cache.Sequential, WriteFrac: 0.3},
		}},
		Regions: []apps.RegionSpec{{
			Name: "smooth", Tasks: 1024, LanesPerTask: 100000,
			ImbalanceCV: 0.08, SerialFrac: 0.002,
		}},
		Iterations: 4,
		MPI: apps.MPIPattern{
			Neighbors: 2, P2PBytes: 128 * 1024,
			AllReduces: 1, AllReduceBytes: 8,
			RankImbalanceCV: 0.08,
		},
	}
}
