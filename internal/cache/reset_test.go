package cache

import (
	"testing"

	"musa/internal/xrand"
)

// randomOps returns n fuzz-encoded cache operations (see diffCache) drawn
// from seed.
func randomOps(seed uint64, n int) []byte {
	r := xrand.New(seed)
	data := make([]byte, 3*n)
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	return data
}

// TestResetCacheMatchesReference: a cache reset after arbitrary use — reads,
// writes, prefetch fills, dirty marks, flushes — answers a new operation
// sequence exactly as a new referenceCache does, result for result.
func TestResetCacheMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "direct", SizeBytes: 64 * LineBytes, Assoc: 1},
		{Name: "4way", SizeBytes: 16 * 4 * LineBytes, Assoc: 4},
		{Name: "16way", SizeBytes: 8 * 16 * LineBytes, Assoc: 16},
	} {
		c := New(cfg)
		for round := uint64(0); round < 4; round++ {
			data := randomOps(round, 4000)
			for i := 0; i+3 <= len(data); i += 3 {
				addr := fuzzAddr(data[i], data[i+1], data[i+2])
				switch data[i] % 4 {
				case 0, 1:
					c.Access(addr, data[i]%4 == 1)
				case 2:
					c.Insert(addr)
				default:
					c.MarkDirty(addr)
				}
			}
			c.Reset()
			diffCacheFrom(t, c, randomOps(100+round, 4000))
		}
	}
}

// resetTestCfgs are three hierarchies of different L2, L3, memory latency and
// prefetcher over one L1.
func resetTestCfgs() []HierarchyConfig {
	base := testHierCfg()
	cfgs := []HierarchyConfig{base, base, base}
	cfgs[1].L2 = Config{Name: "L2", SizeBytes: 512 * 1024, Assoc: 16, LatencyCycle: 11}
	cfgs[2].L3 = Config{Name: "L3", SizeBytes: 256 * 1024, Assoc: 16, LatencyCycle: 40}
	cfgs[2].PrefetchDegree = -1
	return cfgs
}

// sizedAccess is one access of a hierarchy walk.
type sizedAccess struct {
	addr  uint64
	size  int
	write bool
}

// walkStream returns n accesses of a stream the prefetcher trains on mixed
// with random lines and stores, some straddling two lines.
func walkStream(seed uint64, n int) []sizedAccess {
	g := NewAddressGen(LocalityProfile{Regions: []Region{
		{Name: "stream", Bytes: 4 << 20, Weight: 2, Pattern: Sequential, WriteFrac: 0.3},
		{Name: "random", Bytes: 1 << 20, Weight: 1, Pattern: RandomLine, WriteFrac: 0.3},
		{Name: "hot", Bytes: 16 << 10, Weight: 3, Pattern: RandomLine, WriteFrac: 0.3},
	}}, xrand.New(seed))
	out := make([]sizedAccess, n)
	for i := range out {
		addr, w := g.Next()
		out[i] = sizedAccess{addr: addr + uint64(i%61), size: 8 << (i % 4), write: w}
	}
	return out
}

// sameCounters reports whether two hierarchies agree on every counter.
func sameCounters(a, b *Hierarchy) bool {
	return a.L1Stats() == b.L1Stats() && a.L2Stats() == b.L2Stats() && a.L3Stats() == b.L3Stats() &&
		a.MemReads == b.MemReads && a.MemWrites == b.MemWrites && a.PrefetchFills == b.PrefetchFills
}

// TestResetHierarchyMatchesNew: a hierarchy, and a SharedL1 over three, reset
// after a walk of one stream answer a second stream access for access and
// counter for counter as new ones do — the prefetcher's recent misses
// included, which a reset that cleared only the caches would leave trained.
func TestResetHierarchyMatchesNew(t *testing.T) {
	cfgs := resetTestCfgs()
	used, usedShared := NewHierarchy(cfgs[0]), NewSharedL1(cfgs)
	for _, a := range walkStream(1, 100000) {
		used.Access(a.addr, a.size, a.write)
		usedShared.Access(a.addr, a.size, a.write)
	}
	used.Reset()
	usedShared.Reset()
	fresh, freshShared := NewHierarchy(cfgs[0]), NewSharedL1(cfgs)
	for n, a := range walkStream(2, 100000) {
		gl, gLat := used.Access(a.addr, a.size, a.write)
		wl, wLat := fresh.Access(a.addr, a.size, a.write)
		if gl != wl || gLat != wLat {
			t.Fatalf("access %d: reset hierarchy says %v/%d, new one %v/%d", n, gl, gLat, wl, wLat)
		}
		got := append([]Level(nil), usedShared.Access(a.addr, a.size, a.write)...)
		for i, lvl := range freshShared.Access(a.addr, a.size, a.write) {
			if got[i] != lvl {
				t.Fatalf("access %d, hierarchy %d: reset SharedL1 says %v, new one %v", n, i, got[i], lvl)
			}
		}
	}
	if !sameCounters(used, fresh) {
		t.Errorf("reset hierarchy counters differ from a new one's")
	}
	for i, h := range usedShared.Hierarchies() {
		if !sameCounters(h, freshShared.Hierarchies()[i]) {
			t.Errorf("hierarchy %d of the reset SharedL1: counters differ from a new one's", i)
		}
	}
}

// TestResetAllocatesNothing: resetting reuses the arrays it was built with.
func TestResetAllocatesNothing(t *testing.T) {
	s := NewSharedL1(resetTestCfgs())
	if n := testing.AllocsPerRun(10, s.Reset); n != 0 {
		t.Errorf("SharedL1.Reset allocates %.0f times, want 0", n)
	}
}
