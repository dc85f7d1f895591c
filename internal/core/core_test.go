package core

import (
	"context"
	"testing"

	"musa/internal/apps"
	"musa/internal/cpu"
	"musa/internal/dram"
	"musa/internal/net"
	"musa/internal/node"
	"musa/internal/rts"
)

func TestRegionScalingShapes(t *testing.T) {
	// Fig. 2a: HYDRO is the only app with >= ~75% efficiency at 64 cores;
	// the others fall well short.
	opts := DefaultBurstOptions()
	for _, p := range apps.All() {
		sp := RegionScaling(p, []int{1, 32, 64}, opts)
		if sp[0] != 1 {
			t.Errorf("%s: speedup at 1 core = %v", p.Name, sp[0])
		}
		if sp[1] <= 1 || sp[2] < sp[1]*0.9 {
			t.Errorf("%s: speedups not increasing: %v", p.Name, sp)
		}
		eff64 := sp[2] / 64
		if p.Name == "hydro" && eff64 < 0.72 {
			t.Errorf("hydro efficiency@64 = %v, want >= ~0.75", eff64)
		}
		if p.Name != "hydro" && eff64 > 0.70 {
			t.Errorf("%s efficiency@64 = %v, want < 0.7", p.Name, eff64)
		}
	}
}

func TestFullAppScalingShapes(t *testing.T) {
	// Fig. 2b: MPI overheads push average efficiency well below the
	// compute-region numbers (paper: ~49% at 32 cores, ~28% at 64).
	opts := DefaultBurstOptions()
	model := net.MareNostrum4()
	var sum32, sum64 float64
	for _, p := range apps.All() {
		res, _ := FullAppScalingCtx(context.Background(), p, 64, []int{32, 64}, model, opts)
		if len(res) != 2 {
			t.Fatal("wrong result count")
		}
		sum32 += res[0].Efficiency
		sum64 += res[1].Efficiency
		if res[0].MPIFraction < 0 || res[0].MPIFraction > 1 {
			t.Errorf("%s MPI fraction = %v", p.Name, res[0].MPIFraction)
		}
		// Full-app efficiency must be below the pure compute efficiency.
		region := RegionScaling(p, []int{64}, opts)[0] / 64
		if res[1].Efficiency > region+0.02 {
			t.Errorf("%s: full-app efficiency %v above region %v", p.Name, res[1].Efficiency, region)
		}
	}
	if avg := sum32 / 5; avg < 0.30 || avg > 0.70 {
		t.Errorf("avg full-app efficiency@32 = %v, want ~0.49", avg)
	}
	if avg := sum64 / 5; avg < 0.15 || avg > 0.50 {
		t.Errorf("avg full-app efficiency@64 = %v, want ~0.28", avg)
	}
}

func TestHydroBestFullApp(t *testing.T) {
	opts := DefaultBurstOptions()
	model := net.MareNostrum4()
	effs := map[string]float64{}
	for _, p := range apps.All() {
		res, _ := FullAppScalingCtx(context.Background(), p, 32, []int{64}, model, opts)
		effs[p.Name] = res[0].Efficiency
	}
	for name, e := range effs {
		if name != "hydro" && e >= effs["hydro"] {
			t.Errorf("%s full-app efficiency %v >= hydro %v", name, e, effs["hydro"])
		}
	}
}

func nodeCfg() node.Config {
	return node.Config{
		Cores: 64, Core: cpu.Medium(), FreqGHz: 2.0, VectorBits: 128,
		L2KBPerCore: 512, L3MBTotal: 64,
		Mem:        dram.Config{Spec: dram.DDR4_2333(), Channels: 4},
		DRAMPolicy: dram.FRFCFS, DispatchNs: 100, RTSPolicy: rts.FIFOCentral,
		SampleInstrs: 60000, WarmupInstrs: 300000, Seed: 1,
	}
}

func TestDetailedFullApp(t *testing.T) {
	res, err := DetailedFullAppCtx(context.Background(), apps.BTMZ(), nodeCfg(), 16, net.MareNostrum4())
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanNs <= 0 {
		t.Fatal("no makespan")
	}
	if res.MakespanNs < res.Node.ComputeNs {
		t.Errorf("makespan %v below compute %v", res.MakespanNs, res.Node.ComputeNs)
	}
	if res.NodeAvgPowerW <= 0 || res.SystemEnergyJ <= 0 {
		t.Errorf("power/energy: %v / %v", res.NodeAvgPowerW, res.SystemEnergyJ)
	}
	// Average power during MPI waits must be below flat-out compute power.
	if res.NodeAvgPowerW > res.Node.Power.Total()+1e-9 {
		t.Errorf("avg power %v exceeds compute power %v", res.NodeAvgPowerW, res.Node.Power.Total())
	}
}

func TestSampleBurst(t *testing.T) {
	b := SampleBurst(apps.LULESH(), 8, 3)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Ranks) != 8 {
		t.Errorf("%d ranks", len(b.Ranks))
	}
}

func TestDispatchBottleneckAppearsAtHighFrequency(t *testing.T) {
	// The HYDRO Fig. 9a story: node-level speedup from 2.0 to 3.0 GHz is
	// sub-linear because task dispatch stays at wall-clock cost.
	cfg2 := nodeCfg()
	cfg2.SampleInstrs = 100000
	cfg2.WarmupInstrs = 1500000
	cfg3 := cfg2
	cfg3.FreqGHz = 3.0
	r2 := node.Simulate(apps.Hydro(), cfg2)
	r3 := node.Simulate(apps.Hydro(), cfg3)
	sp := r2.ComputeNs / r3.ComputeNs
	if sp > 1.45 {
		t.Errorf("hydro 2->3 GHz speedup = %v, want sub-linear (< 1.45)", sp)
	}
	if sp < 1.0 {
		t.Errorf("hydro slower at 3 GHz: %v", sp)
	}
}
