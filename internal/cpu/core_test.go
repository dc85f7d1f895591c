package cpu

import (
	"strings"
	"testing"

	"musa/internal/cache"
	"musa/internal/isa"
)

func testHier() *cache.Hierarchy {
	return cache.NewHierarchy(cache.HierarchyConfig{
		L1:              cache.Config{Name: "L1", SizeBytes: 32 * 1024, Assoc: 8, LatencyCycle: 4},
		L2:              cache.Config{Name: "L2", SizeBytes: 256 * 1024, Assoc: 8, LatencyCycle: 9},
		L3:              cache.Config{Name: "L3", SizeBytes: 1 << 20, Assoc: 16, LatencyCycle: 68},
		MemLatencyCycle: 200,
	})
}

func run(cfg Config, ins []isa.Instr) Result {
	c := New(cfg, testHier(), 1)
	return c.Run(isa.NewSliceStream(ins))
}

func repeatInstr(in isa.Instr, n int) []isa.Instr {
	out := make([]isa.Instr, n)
	for i := range out {
		out[i] = in
		out[i].Lanes = 1
	}
	return out
}

func TestConfigsValid(t *testing.T) {
	for _, cfg := range AllConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	if _, err := ByName("aggressive"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	bad := Config{Name: "bad"}
	if bad.Validate() == nil {
		t.Error("zero config validated")
	}
}

func TestValidateRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
		want string // the field the message must name
	}{
		{"no ROB", func(c *Config) { c.ROB = 0 }, "ROB"},
		{"no ALUs", func(c *Config) { c.ALUs = 0 }, "port"},
		{"no FP registers", func(c *Config) { c.FPRF = 0 }, "register"},
		{"too many ALUs", func(c *Config) { c.ALUs = MaxPorts + 1 }, "ALUs 9"},
		{"too many FPUs", func(c *Config) { c.FPUs = MaxPorts + 1 }, "FPUs 9"},
		{"ROB past its ring", func(c *Config) { c.ROB = MaxROB + 1 }, "ROB 513 exceeds MaxROB 512"},
		{"structures past their ring", func(c *Config) { c.StoreBuffer, c.IntRF, c.FPRF = 325, 400, 300 },
			"1025 exceed MaxStructural 1024"},
	} {
		cfg := Medium()
		c.edit(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
	full := Medium()
	full.ALUs, full.FPUs = MaxPorts, MaxPorts
	full.ROB = MaxROB
	full.StoreBuffer, full.IntRF, full.FPRF = 324, 400, 300
	if err := full.Validate(); err != nil {
		t.Errorf("every bound met exactly rejected: %v", err)
	}
}

func TestEmptyStream(t *testing.T) {
	res := run(Medium(), nil)
	if res.Cycles != 0 || res.Instructions != 0 {
		t.Errorf("empty stream: %+v", res)
	}
	if res.IPC() != 0 || res.MemRequestsPerCycle() != 0 {
		t.Error("zero-division in helpers")
	}
}

func TestIndependentALUOpsReachWidth(t *testing.T) {
	// N independent single-cycle ALU ops on a W-wide core with enough ALUs
	// should approach min(width, ALUs) IPC.
	cfg := Aggressive() // width 8, ALUs 5
	res := run(cfg, repeatInstr(isa.Instr{Class: isa.IntALU}, 10000))
	want := float64(cfg.ALUs) // ports bind before width here
	if res.IPC() < want*0.9 {
		t.Errorf("IPC = %v, want ~%v", res.IPC(), want)
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	// A chain of dependent 1-cycle ops must run at IPC ~1 regardless of width.
	ins := repeatInstr(isa.Instr{Class: isa.IntALU, Dep1: 1}, 5000)
	res := run(Aggressive(), ins)
	if res.IPC() > 1.05 {
		t.Errorf("dependent chain IPC = %v, want <= ~1", res.IPC())
	}
}

func TestIssueWidthLimits(t *testing.T) {
	// With abundant ports, a narrow core commits fewer ops/cycle.
	mk := func(cfg Config) float64 {
		cfg.ALUs = 8
		return run(cfg, repeatInstr(isa.Instr{Class: isa.IntALU}, 8000)).IPC()
	}
	low, high := mk(LowEnd()), mk(Aggressive())
	if low > float64(LowEnd().IssueWidth)+0.05 {
		t.Errorf("low-end IPC %v exceeds its width", low)
	}
	if high <= low {
		t.Errorf("aggressive IPC %v <= low-end %v", high, low)
	}
}

func TestFPPortContention(t *testing.T) {
	// Independent FP adds: throughput limited by FPU count on a wide core.
	cfg := Aggressive()
	cfg.FPUs = 2
	res := run(cfg, repeatInstr(isa.Instr{Class: isa.FPAdd}, 8000))
	if res.IPC() > 2.1 {
		t.Errorf("FP IPC = %v with 2 FPUs", res.IPC())
	}
}

func TestFPDivUnpipelined(t *testing.T) {
	cfg := Medium()
	res := run(cfg, repeatInstr(isa.Instr{Class: isa.FPDiv}, 1000))
	// 3 FPUs, occupancy 16 -> at most 3/16 IPC.
	if res.IPC() > 3.0/16.0*1.1 {
		t.Errorf("div IPC = %v, want <= ~%v", res.IPC(), 3.0/16.0)
	}
}

func TestROBLimitsMLP(t *testing.T) {
	// Independent loads that all miss to memory: a large ROB overlaps many
	// more misses than a small one. This is the core mechanism behind the
	// paper's Fig. 7 (Specfem3D 60% slower on low-end cores).
	mkLoads := func(n int) []isa.Instr {
		ins := make([]isa.Instr, n)
		for i := range ins {
			// Each load touches a new line far apart: always memory misses.
			ins[i] = isa.Instr{Class: isa.Load, Addr: uint64(i) * 4096, Size: 8, Lanes: 1}
		}
		return ins
	}
	small := run(LowEnd(), mkLoads(4000))
	big := run(Aggressive(), mkLoads(4000))
	speedup := float64(small.Cycles) / float64(big.Cycles)
	if speedup < 2 {
		t.Errorf("aggressive/low-end speedup on miss streams = %v, want > 2", speedup)
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	// Stores that miss to memory drain slowly; a tiny store buffer stalls.
	mkStores := func(n int) []isa.Instr {
		ins := make([]isa.Instr, n)
		for i := range ins {
			ins[i] = isa.Instr{Class: isa.Store, Addr: uint64(i) * 4096, Size: 8, Lanes: 1}
		}
		return ins
	}
	cfg := Medium()
	cfg.StoreBuffer = 2
	slow := run(cfg, mkStores(3000))
	fast := run(Medium(), mkStores(3000))
	if slow.Cycles <= fast.Cycles {
		t.Errorf("tiny store buffer not slower: %d vs %d", slow.Cycles, fast.Cycles)
	}
	if slow.StallSB == 0 {
		t.Error("no SB stalls recorded")
	}
}

func TestMispredictsSlowDown(t *testing.T) {
	ins := repeatInstr(isa.Instr{Class: isa.Branch}, 5000)
	hier1 := testHier()
	c1 := New(Medium(), hier1, 7)
	base := c1.Run(isa.NewSliceStream(ins))
	hier2 := testHier()
	c2 := New(Medium(), hier2, 7)
	c2.BranchMispredictRate = 0.05
	bad := c2.Run(isa.NewSliceStream(ins))
	if bad.Mispredicts == 0 {
		t.Fatal("no mispredicts at 5% rate")
	}
	if bad.Cycles <= base.Cycles {
		t.Errorf("mispredicts did not slow execution: %d vs %d", bad.Cycles, base.Cycles)
	}
}

func TestCacheStatsPropagate(t *testing.T) {
	ins := make([]isa.Instr, 2000)
	for i := range ins {
		ins[i] = isa.Instr{Class: isa.Load, Addr: uint64(i%8) * 64, Size: 8, Lanes: 1}
	}
	res := run(Medium(), ins)
	if res.L1.Accesses != 2000 {
		t.Errorf("L1 accesses = %d", res.L1.Accesses)
	}
	if res.L1.Misses != 8 {
		t.Errorf("L1 misses = %d, want 8 cold", res.L1.Misses)
	}
	// The stream prefetcher may fetch a few lines beyond the 8 hot ones.
	if res.MemReads < 8 || res.MemReads > 20 {
		t.Errorf("MemReads = %d, want 8 demand lines (+ bounded prefetch)", res.MemReads)
	}
}

func TestHotLoadsFasterThanMissingLoads(t *testing.T) {
	hot := make([]isa.Instr, 3000)
	for i := range hot {
		hot[i] = isa.Instr{Class: isa.Load, Addr: uint64(i%4) * 64, Size: 8, Lanes: 1, Dep1: 1}
	}
	cold := make([]isa.Instr, 3000)
	for i := range cold {
		cold[i] = isa.Instr{Class: isa.Load, Addr: uint64(i) * 4096, Size: 8, Lanes: 1, Dep1: 1}
	}
	rh := run(Medium(), hot)
	rc := run(Medium(), cold)
	if rc.Cycles < rh.Cycles*10 {
		t.Errorf("dependent missing loads (%d cyc) not much slower than hot (%d cyc)", rc.Cycles, rh.Cycles)
	}
}

func TestLaneWorkCountsFusion(t *testing.T) {
	ins := []isa.Instr{
		{Class: isa.FPAdd, Lanes: 8},
		{Class: isa.FPAdd, Lanes: 1},
	}
	res := run(Medium(), ins)
	if res.LaneWork != 9 {
		t.Errorf("LaneWork = %d, want 9", res.LaneWork)
	}
	if res.Instructions != 2 {
		t.Errorf("Instructions = %d, want 2", res.Instructions)
	}
}

func TestFusedStreamFasterThanScalar(t *testing.T) {
	// The end-to-end vector win: the same loop at 512-bit fused vs scalar.
	mkLoop := func(width int) Result {
		var raw []isa.Instr
		for i := 0; i < 2000; i++ {
			raw = append(raw,
				isa.Instr{PC: 1, BB: 1, Class: isa.FPMul, Lanes: 1, Vectorizable: true},
				isa.Instr{PC: 2, BB: 1, Class: isa.Load, Addr: uint64(i * 8), Size: 8, Lanes: 1, Vectorizable: true},
				isa.Instr{PC: 3, BB: 1, Class: isa.IntALU, Lanes: 1},
			)
		}
		fu := isa.NewFuser(isa.NewSliceStream(raw), isa.DefaultFuserConfig(width))
		c := New(Medium(), testHier(), 3)
		return c.Run(fu)
	}
	scalar := mkLoop(64)
	wide := mkLoop(512)
	if wide.Cycles >= scalar.Cycles {
		t.Errorf("512-bit (%d cyc) not faster than scalar (%d cyc)", wide.Cycles, scalar.Cycles)
	}
	if wide.LaneWork != scalar.LaneWork {
		t.Errorf("lane work differs: %d vs %d", wide.LaneWork, scalar.LaneWork)
	}
}

func TestOoOConfigOrdering(t *testing.T) {
	// On a mixed workload with memory misses, the Table I cores must order
	// lowend <= medium <= high <= aggressive in performance.
	var ins []isa.Instr
	for i := 0; i < 6000; i++ {
		ins = append(ins,
			isa.Instr{Class: isa.Load, Addr: uint64(i) * 512, Size: 8, Lanes: 1},
			isa.Instr{Class: isa.FPAdd, Dep1: 1, Lanes: 1},
			isa.Instr{Class: isa.IntALU, Lanes: 1},
			isa.Instr{Class: isa.FPMul, Dep1: 2, Lanes: 1},
		)
	}
	var prev int64 = 1 << 62
	for _, cfg := range AllConfigs() {
		res := run(cfg, ins)
		if res.Cycles > prev+prev/20 { // allow 5% noise
			t.Errorf("%s slower than previous config: %d > %d", cfg.Name, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

func BenchmarkCoreALUStream(b *testing.B) {
	ins := repeatInstr(isa.Instr{Class: isa.IntALU}, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(Medium(), testHier(), 1)
		c.Run(isa.NewSliceStream(ins))
	}
}

func BenchmarkCoreMemStream(b *testing.B) {
	ins := make([]isa.Instr, 10000)
	for i := range ins {
		ins[i] = isa.Instr{Class: isa.Load, Addr: uint64(i) * 256, Size: 8, Lanes: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(Medium(), testHier(), 1)
		c.Run(isa.NewSliceStream(ins))
	}
}
