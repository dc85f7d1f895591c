package cache

import (
	"testing"

	"musa/internal/xrand"
)

func testHierCfg() HierarchyConfig {
	return HierarchyConfig{
		L1:              Config{Name: "L1", SizeBytes: 32 * 1024, Assoc: 8, LatencyCycle: 4},
		L2:              Config{Name: "L2", SizeBytes: 256 * 1024, Assoc: 8, LatencyCycle: 9},
		L3:              Config{Name: "L3", SizeBytes: 1024 * 1024, Assoc: 16, LatencyCycle: 68},
		MemLatencyCycle: 200,
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(testHierCfg())
	lvl, lat := h.Access(0x1000, 8, false)
	if lvl != LevelMem {
		t.Errorf("cold access served at %v", lvl)
	}
	if lat != 68+200 {
		t.Errorf("mem latency = %d", lat)
	}
	lvl, lat = h.Access(0x1000, 8, false)
	if lvl != LevelL1 || lat != 4 {
		t.Errorf("hot access: %v/%d", lvl, lat)
	}
	if h.MemReads != 1 {
		t.Errorf("MemReads = %d", h.MemReads)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := NewHierarchy(testHierCfg())
	// Touch a footprint bigger than L1 but within L2; second pass must be
	// served by L2.
	const foot = 128 * 1024
	for a := uint64(0); a < foot; a += 64 {
		h.Access(a, 8, false)
	}
	lvl, lat := h.Access(0, 8, false)
	if lvl != LevelL2 || lat != 9 {
		t.Errorf("expected L2 hit, got %v/%d", lvl, lat)
	}
}

func TestHierarchyL3Hit(t *testing.T) {
	h := NewHierarchy(testHierCfg())
	const foot = 512 * 1024 // > L2, < L3
	for a := uint64(0); a < foot; a += 64 {
		h.Access(a, 8, false)
	}
	lvl, _ := h.Access(0, 8, false)
	if lvl != LevelL3 {
		t.Errorf("expected L3 hit, got %v", lvl)
	}
}

func TestStraddlingAccess(t *testing.T) {
	h := NewHierarchy(testHierCfg())
	// A 64-byte access at offset 32 touches two lines.
	h.Access(32, 64, false)
	if h.L1Stats().Accesses != 2 {
		t.Errorf("straddling access touched %d lines", h.L1Stats().Accesses)
	}
	// Both lines now resident.
	lvl, _ := h.Access(32, 64, false)
	if lvl != LevelL1 {
		t.Errorf("resident straddling access at %v", lvl)
	}
}

func TestWritebackReachesMemory(t *testing.T) {
	h := NewHierarchy(testHierCfg())
	// Dirty a streaming footprint much larger than L3: dirty lines must
	// eventually be written back to memory.
	const foot = 8 * 1024 * 1024
	for a := uint64(0); a < foot; a += 64 {
		h.Access(a, 8, true)
	}
	// Stream a second disjoint footprint to force evictions through L3.
	for a := uint64(1 << 30); a < (1<<30)+foot; a += 64 {
		h.Access(a, 8, false)
	}
	if h.MemWrites == 0 {
		t.Error("no DRAM writes despite dirty thrashing")
	}
	if h.MemRequests() != h.MemReads+h.MemWrites {
		t.Error("MemRequests mismatch")
	}
}

func TestLevelString(t *testing.T) {
	for _, l := range []Level{LevelL1, LevelL2, LevelL3, LevelMem} {
		if l.String() == "?" {
			t.Errorf("level %d unprintable", l)
		}
	}
}

func TestLocalityValidate(t *testing.T) {
	bad := []LocalityProfile{
		{},
		{Regions: []Region{{Name: "x", Bytes: 0, Weight: 1}}},
		{Regions: []Region{{Name: "x", Bytes: 64, Weight: -1}}},
		{Regions: []Region{{Name: "x", Bytes: 64, Weight: 0}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %d validated", i)
		}
	}
	ok := LocalityProfile{Regions: []Region{{Name: "a", Bytes: 4096, Weight: 1}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	if ok.FootprintBytes() != 4096 {
		t.Errorf("footprint = %d", ok.FootprintBytes())
	}
}

func TestAddressGenRegionsDisjoint(t *testing.T) {
	p := LocalityProfile{Regions: []Region{
		{Name: "a", Bytes: 1 << 20, Weight: 1, Pattern: Sequential},
		{Name: "b", Bytes: 1 << 20, Weight: 1, Pattern: RandomLine},
	}}
	g := NewAddressGen(p, xrand.New(1))
	for i := 0; i < 10000; i++ {
		addr, _ := g.Next()
		seg := addr / regionSegment
		off := addr % regionSegment
		if seg != 1 && seg != 2 {
			t.Fatalf("address 0x%x outside region segments", addr)
		}
		if off >= 1<<20 {
			t.Fatalf("address 0x%x beyond region footprint", addr)
		}
	}
}

func TestSequentialKnee(t *testing.T) {
	// The central calibration mechanism: a sequential region whose footprint
	// sits between two L2 sizes must hit with the bigger L2 and miss with
	// the smaller one (HYDRO's 256K->512K 4x MPKI drop in the paper).
	mkHier := func(l2Size int) *Hierarchy {
		cfg := testHierCfg()
		cfg.L2.SizeBytes = l2Size
		cfg.PrefetchDegree = -1 // isolate raw capacity behavior
		return NewHierarchy(cfg)
	}
	p := LocalityProfile{Regions: []Region{
		{Name: "ws", Bytes: 384 * 1024, Weight: 1, Pattern: Sequential},
	}}

	run := func(h *Hierarchy) float64 {
		g := NewAddressGen(p, xrand.New(7))
		const n = 400000
		for i := 0; i < n; i++ { // warmup pass fills the caches
			addr, w := g.Next()
			h.Access(addr, 8, w)
		}
		warm := h.L2Stats()
		for i := 0; i < n; i++ {
			addr, w := g.Next()
			h.Access(addr, 8, w)
		}
		steady := h.L2Stats()
		return float64(steady.Misses-warm.Misses) / float64(steady.Accesses-warm.Accesses)
	}
	small := run(mkHier(256 * 1024))
	big := run(mkHier(512 * 1024))
	if small < 0.9 {
		t.Errorf("256K L2 miss rate = %v, want ~1 (thrash)", small)
	}
	if big > 0.05 {
		t.Errorf("512K L2 miss rate = %v, want ~0 (fits)", big)
	}
}

func TestRandomLineHitRateScales(t *testing.T) {
	// RandomLine over 2x the L1: hit rate ~ 0.5 in L1 (plus spatial reuse).
	p := LocalityProfile{Regions: []Region{
		{Name: "r", Bytes: 64 * 1024, Weight: 1, Pattern: RandomLine},
	}}
	h := NewHierarchy(testHierCfg())
	g := NewAddressGen(p, xrand.New(9))
	for i := 0; i < 300000; i++ {
		addr, w := g.Next()
		h.Access(addr, 8, w)
	}
	rate := h.L1Stats().MissRate()
	if rate < 0.3 || rate > 0.7 {
		t.Errorf("random-line L1 miss rate = %v, want ~0.5", rate)
	}
}

func TestWriteFraction(t *testing.T) {
	p := LocalityProfile{Regions: []Region{
		{Name: "w", Bytes: 1 << 20, Weight: 1, Pattern: RandomLine, WriteFrac: 0.3},
	}}
	g := NewAddressGen(p, xrand.New(11))
	writes := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if _, w := g.Next(); w {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("write fraction = %v, want ~0.3", frac)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := NewHierarchy(testHierCfg())
	p := LocalityProfile{Regions: []Region{
		{Name: "a", Bytes: 1 << 22, Weight: 1, Pattern: Sequential},
		{Name: "b", Bytes: 1 << 16, Weight: 2, Pattern: RandomLine},
	}}
	g := NewAddressGen(p, xrand.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr, w := g.Next()
		h.Access(addr, 8, w)
	}
}

// TestSharedL1MatchesSeparateHierarchies walks one mixed stream — streams the
// prefetcher trains on, random lines, stores, straddling accesses — through
// three hierarchies of different L2, L3 and memory latency, once over a
// shared L1 and once each on its own: every access must resolve to the same
// level and every counter must agree.
func TestSharedL1MatchesSeparateHierarchies(t *testing.T) {
	base := testHierCfg()
	cfgs := []HierarchyConfig{base, base, base}
	cfgs[1].L2 = Config{Name: "L2", SizeBytes: 512 * 1024, Assoc: 16, LatencyCycle: 11}
	cfgs[1].MemLatencyCycle = 0 // L3 and DRAM tie, as in a cache walk
	cfgs[2].L3 = Config{Name: "L3", SizeBytes: 256 * 1024, Assoc: 16, LatencyCycle: 40}
	cfgs[2].PrefetchDegree = -1
	shared := NewSharedL1(cfgs)
	alone := make([]*Hierarchy, len(cfgs))
	for i, cfg := range cfgs {
		alone[i] = NewHierarchy(cfg)
	}
	g := NewAddressGen(LocalityProfile{Regions: []Region{
		{Name: "stream", Bytes: 4 << 20, Weight: 2, Pattern: Sequential, WriteFrac: 0.3},
		{Name: "random", Bytes: 1 << 20, Weight: 1, Pattern: RandomLine, WriteFrac: 0.3},
		{Name: "hot", Bytes: 16 << 10, Weight: 3, Pattern: RandomLine, WriteFrac: 0.3},
	}}, xrand.New(7))
	for n := 0; n < 200000; n++ {
		if n == 100000 {
			shared.ResetStats()
			for _, h := range alone {
				h.ResetStats()
			}
		}
		addr, w := g.Next()
		size := 8 << (n % 4) // 8..64 bytes, some straddling
		addr += uint64(n % 61)
		got := shared.Access(addr, size, w)
		for i, h := range alone {
			if lvl, _ := h.Access(addr, size, w); got[i] != lvl {
				t.Fatalf("access %d, hierarchy %d: shared walk says %v, alone %v", n, i, got[i], lvl)
			}
		}
	}
	for i, h := range shared.Hierarchies() {
		a := alone[i]
		if h.L1Stats() != a.L1Stats() || h.L2Stats() != a.L2Stats() || h.L3Stats() != a.L3Stats() ||
			h.MemReads != a.MemReads || h.MemWrites != a.MemWrites || h.PrefetchFills != a.PrefetchFills {
			t.Errorf("hierarchy %d: shared %+v %+v %+v %d/%d/%d, alone %+v %+v %+v %d/%d/%d", i,
				h.L1Stats(), h.L2Stats(), h.L3Stats(), h.MemReads, h.MemWrites, h.PrefetchFills,
				a.L1Stats(), a.L2Stats(), a.L3Stats(), a.MemReads, a.MemWrites, a.PrefetchFills)
		}
	}
}
