package node

import (
	"math"
	"testing"

	"musa/internal/apps"
	"musa/internal/cpu"
	"musa/internal/dram"
	"musa/internal/rts"
)

// baseCfg is the mid-range configuration used as test baseline: medium core,
// 2 GHz, 128-bit SIMD, 64M:512K caches, 4-channel DDR4, 64 cores.
func baseCfg() Config {
	return Config{
		Cores:        64,
		Core:         cpu.Medium(),
		FreqGHz:      2.0,
		VectorBits:   128,
		L2KBPerCore:  512,
		L3MBTotal:    64,
		Mem:          dram.Config{Spec: dram.DDR4_2333(), Channels: 4},
		DRAMPolicy:   dram.FRFCFS,
		DispatchNs:   100,
		RTSPolicy:    rts.FIFOCentral,
		SampleInstrs: 200000,
		WarmupInstrs: 2000000,
		Seed:         1,
	}
}

func simFast(t *testing.T, app *apps.Profile, cfg Config) Result {
	t.Helper()
	return Simulate(app, cfg)
}

func TestValidate(t *testing.T) {
	if err := baseCfg().Validate(); err != nil {
		t.Error(err)
	}
	bad := baseCfg()
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("zero cores validated")
	}
	bad2 := baseCfg()
	bad2.L2KBPerCore = 0
	if bad2.Validate() == nil {
		t.Error("zero L2 validated")
	}
}

func TestDIMMs(t *testing.T) {
	cfg := baseCfg()
	if cfg.DIMMs() != 8 {
		t.Errorf("4ch DIMMs = %d, want 8", cfg.DIMMs())
	}
}

func TestTableILatencies(t *testing.T) {
	cases := []struct{ kb, wantAssoc, wantLat int }{
		{256, 8, 9}, {512, 16, 11}, {1024, 16, 13},
	}
	for _, c := range cases {
		a, l := l2Params(c.kb)
		if a != c.wantAssoc || l != c.wantLat {
			t.Errorf("l2Params(%d) = %d/%d, want %d/%d", c.kb, a, l, c.wantAssoc, c.wantLat)
		}
	}
	for _, c := range []struct{ mb, wantLat int }{{32, 68}, {64, 70}, {96, 72}} {
		_, l := l3Params(c.mb)
		if l != c.wantLat {
			t.Errorf("l3Params(%d) latency = %d, want %d", c.mb, l, c.wantLat)
		}
	}
	// Extrapolation for unconventional sizes stays sane.
	if _, l := l2Params(2048); l <= 13 {
		t.Errorf("2MB L2 latency %d not above 1MB's", l)
	}
}

func TestSimulateBasics(t *testing.T) {
	res := simFast(t, apps.Hydro(), baseCfg())
	if res.ComputeNs <= 0 || res.IterationNs <= 0 {
		t.Fatalf("durations: %+v", res)
	}
	if res.LaneThroughput <= 0 {
		t.Error("no throughput")
	}
	if res.Power.Total() <= 0 || res.EnergyJ <= 0 {
		t.Error("no power/energy")
	}
	if res.AvgActiveCores <= 0 || res.AvgActiveCores > 64 {
		t.Errorf("active cores = %v", res.AvgActiveCores)
	}
	l1, l2, l3 := res.MPKI()
	if l1 <= 0 || l2 < 0 || l3 < 0 {
		t.Errorf("MPKI = %v/%v/%v", l1, l2, l3)
	}
}

func TestDeterminism(t *testing.T) {
	a := simFast(t, apps.BTMZ(), baseCfg())
	b := simFast(t, apps.BTMZ(), baseCfg())
	if a.ComputeNs != b.ComputeNs || a.EnergyJ != b.EnergyJ {
		t.Error("node simulation not deterministic")
	}
}

func TestMoreCoresFasterCompute(t *testing.T) {
	cfg1 := baseCfg()
	cfg1.Cores = 1
	cfg32 := baseCfg()
	cfg32.Cores = 32
	app := apps.Hydro()
	r1 := simFast(t, app, cfg1)
	r32 := simFast(t, app, cfg32)
	speedup := r1.ComputeNs / r32.ComputeNs
	if speedup < 10 {
		t.Errorf("32-core speedup = %v, want >> 1", speedup)
	}
}

func TestFrequencyScalesCompute(t *testing.T) {
	lo := baseCfg()
	lo.FreqGHz = 1.5
	hi := baseCfg()
	hi.FreqGHz = 3.0
	app := apps.BTMZ()
	rl := simFast(t, app, lo)
	rh := simFast(t, app, hi)
	sp := rl.ComputeNs / rh.ComputeNs
	if sp < 1.5 || sp > 2.2 {
		t.Errorf("2x frequency speedup = %v, want ~2 (btmz scales linearly, Fig. 9a)", sp)
	}
}

func TestLuleshBandwidthBound(t *testing.T) {
	// The Fig. 8 mechanism: LULESH at 64 cores gains substantially from 8
	// channels; HYDRO (low BW) does not.
	fourCh := baseCfg()
	eightCh := baseCfg()
	eightCh.Mem.Channels = 8

	lul4 := simFast(t, apps.LULESH(), fourCh)
	lul8 := simFast(t, apps.LULESH(), eightCh)
	lulSpeedup := lul4.ComputeNs / lul8.ComputeNs
	if lulSpeedup < 1.15 {
		t.Errorf("lulesh 8ch speedup = %v, want > 1.15", lulSpeedup)
	}

	hyd4 := simFast(t, apps.Hydro(), fourCh)
	hyd8 := simFast(t, apps.Hydro(), eightCh)
	hydSpeedup := hyd4.ComputeNs / hyd8.ComputeNs
	if hydSpeedup > 1.05 {
		t.Errorf("hydro 8ch speedup = %v, want ~1", hydSpeedup)
	}
}

func TestVectorWidthSpeedups(t *testing.T) {
	// Fig. 5a shape: SPMZ gains a lot from 512-bit, LULESH nothing.
	narrow := baseCfg()
	wide := baseCfg()
	wide.VectorBits = 512

	spm128 := simFast(t, apps.SPMZ(), narrow)
	spm512 := simFast(t, apps.SPMZ(), wide)
	spmSp := spm128.ComputeNs / spm512.ComputeNs
	if spmSp < 1.3 {
		t.Errorf("spmz 512-bit speedup = %v, want > 1.3", spmSp)
	}

	lul128 := simFast(t, apps.LULESH(), narrow)
	lul512 := simFast(t, apps.LULESH(), wide)
	lulSp := lul128.ComputeNs / lul512.ComputeNs
	if lulSp > 1.08 {
		t.Errorf("lulesh 512-bit speedup = %v, want ~1", lulSp)
	}
}

func TestOoOSensitivity(t *testing.T) {
	// Fig. 7a shape: Specfem3D suffers most on the low-end core.
	low := baseCfg()
	low.Core = cpu.LowEnd()
	agg := baseCfg()
	agg.Core = cpu.Aggressive()

	specLow := simFast(t, apps.Spec3D(), low)
	specAgg := simFast(t, apps.Spec3D(), agg)
	slowdown := specLow.ComputeNs / specAgg.ComputeNs
	if slowdown < 1.4 {
		t.Errorf("spec3d lowend/aggressive = %v, want > 1.4", slowdown)
	}
}

func TestHydroCacheKnee(t *testing.T) {
	// Fig. 6 / paper text: HYDRO's working set fits in 512 kB but not in
	// 256 kB; upgrading the L2 drops its L2 MPKI by ~4x.
	small := baseCfg()
	small.L2KBPerCore = 256
	small.L3MBTotal = 32
	big := baseCfg()

	rs := simFast(t, apps.Hydro(), small)
	rb := simFast(t, apps.Hydro(), big)
	_, l2s, _ := rs.MPKI()
	_, l2b, _ := rb.MPKI()
	if l2s < 2.5*l2b {
		t.Errorf("hydro L2 MPKI drop = %vx (from %v to %v), want >= ~4x", l2s/l2b, l2s, l2b)
	}
	if rs.ComputeNs <= rb.ComputeNs {
		t.Error("bigger caches did not speed HYDRO up")
	}
}

func TestContentionAblation(t *testing.T) {
	on := baseCfg()
	off := baseCfg()
	off.DisableContention = true
	app := apps.LULESH()
	ron := simFast(t, app, on)
	roff := simFast(t, app, off)
	if ron.ComputeNs < roff.ComputeNs {
		t.Error("contention model made LULESH faster")
	}
}

func TestReplayRegionsDegenerateThroughput(t *testing.T) {
	// A zero/NaN/Inf lane throughput must not poison the region durations
	// with +Inf/NaN scale factors; replayRegions clamps to the reference
	// throughput instead.
	app := apps.Hydro()
	cfg := baseCfg()
	for _, tp := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, durs := replayRegions(regionGraphs(app, cfg.Seed), cfg, tp)
		if len(durs) == 0 {
			t.Fatalf("throughput %v: no regions replayed", tp)
		}
		for ri, d := range durs {
			if math.IsNaN(d) || math.IsInf(d, 0) || d <= 0 {
				t.Errorf("throughput %v: region %d duration %v not finite positive", tp, ri, d)
			}
		}
	}
}

func BenchmarkNodeSimulate(b *testing.B) {
	cfg := baseCfg()
	cfg.SampleInstrs = 30000
	app := apps.BTMZ()
	lm := BuildLatencyModel(app, cfg.Mem, cfg.DRAMPolicy, 1)
	cfg.LatModel = &lm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(app, cfg)
	}
}

// BenchmarkTimingReplay times cpu.RunTiming alone, the loop a sweep spends
// most of its CPU in: one real 512-bit annotation replayed on each Table I
// core at a loaded memory latency, and, as "compile", the build of that
// annotation's op column from its fused trace and hit-rate table
// (CombineAnnotation, once per annotation group). ns/uop is host time per
// simulated micro-op, the figure DESIGN.md §15 tabulates.
func BenchmarkTimingReplay(b *testing.B) {
	cfg := baseCfg()
	cfg.VectorBits = 512
	cfg.SampleInstrs, cfg.WarmupInstrs = 120000, 240000
	ft := BuildFusedTrace(apps.LULESH(), cfg.VectorBits, cfg.SampleInstrs, cfg.WarmupInstrs, cfg.Seed)
	hrt := WalkCaches(ft, []Config{cfg})[0]
	a, _ := CombineAnnotation(ft, hrt)
	perUop := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(a.Ann.Len()), "ns/uop")
	}
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			CombineAnnotation(ft, hrt)
		}
		perUop(b)
	})
	lat := cpu.LatenciesFor(a.HierCfg, 140, cfg.FreqGHz)
	for _, core := range cpu.AllConfigs() {
		b.Run(core.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				cpu.RunTiming(core, a.Ann, lat)
			}
			perUop(b)
		})
	}
}
