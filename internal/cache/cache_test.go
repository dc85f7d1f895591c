package cache

import (
	"testing"
	"testing/quick"
)

func smallCfg(name string, size, assoc, lat int) Config {
	return Config{Name: name, SizeBytes: size, Assoc: assoc, LatencyCycle: lat}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 0, Assoc: 1},
		{Name: "b", SizeBytes: 100, Assoc: 1},    // not multiple of line
		{Name: "c", SizeBytes: 1024, Assoc: 0},   // bad assoc
		{Name: "d", SizeBytes: 64 * 3, Assoc: 2}, // lines % assoc != 0
		{Name: "e", SizeBytes: 64 * 6, Assoc: 2}, // 3 sets, not pow2
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v validated", c)
		}
	}
	good := smallCfg("l1", 32*1024, 8, 4)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := New(smallCfg("t", 1024, 2, 1))
	if c.Access(0x40, false).Hit {
		t.Error("cold access hit")
	}
	if !c.Access(0x40, false).Hit {
		t.Error("second access missed")
	}
	if !c.Access(0x7f, false).Hit {
		t.Error("same-line access missed")
	}
	if c.Stats.Accesses != 3 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way cache with 2 sets: lines mapping to set 0 are multiples of 128.
	c := New(smallCfg("t", 256, 2, 1))
	c.Access(0, false)   // set 0, way A
	c.Access(128, false) // set 0, way B
	c.Access(0, false)   // touch A: B is now LRU
	c.Access(256, false) // evicts B (128)
	if !c.Contains(0) {
		t.Error("MRU line evicted")
	}
	if c.Contains(128) {
		t.Error("LRU line survived")
	}
	if !c.Contains(256) {
		t.Error("new line absent")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New(smallCfg("t", 128, 1, 1)) // direct-mapped, 2 sets
	c.Access(0, true)                  // dirty line in set 0
	res := c.Access(128, false)        // evicts it
	if !res.Evicted || !res.EvictedDirty {
		t.Errorf("eviction result = %+v", res)
	}
	if res.EvictedAddr != 0 {
		t.Errorf("evicted addr = %#x, want 0", res.EvictedAddr)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats.Writebacks)
	}
}

func TestEvictedAddrReconstruction(t *testing.T) {
	f := func(a uint32) bool {
		c := New(smallCfg("t", 4096, 4, 1))
		addr := uint64(a) &^ 0x3f
		c.Access(addr, true)
		// Force eviction by filling the set with conflicting lines.
		setStrideBytes := uint64(4096 / 4) // sets * lineBytes
		var evicted uint64
		found := false
		for i := uint64(1); i <= 4; i++ {
			res := c.Access(addr+i*setStrideBytes, false)
			if res.Evicted && res.EvictedDirty {
				evicted = res.EvictedAddr
				found = true
				break
			}
		}
		return found && evicted == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWorkingSetFitsNoSteadyMisses(t *testing.T) {
	// A footprint smaller than the cache must produce only cold misses.
	c := New(smallCfg("t", 64*1024, 8, 1))
	const footprint = 32 * 1024
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < footprint; a += 64 {
			c.Access(a, false)
		}
	}
	wantCold := int64(footprint / 64)
	if c.Stats.Misses != wantCold {
		t.Errorf("misses = %d, want %d cold misses only", c.Stats.Misses, wantCold)
	}
}

func TestWorkingSetExceedsThrashes(t *testing.T) {
	// Sequential walk over 2x the cache size with LRU misses every line.
	c := New(smallCfg("t", 32*1024, 8, 1))
	const footprint = 64 * 1024
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < footprint; a += 64 {
			c.Access(a, false)
		}
	}
	if rate := c.Stats.MissRate(); rate < 0.99 {
		t.Errorf("sequential thrash miss rate = %v, want ~1", rate)
	}
}

func TestMarkDirty(t *testing.T) {
	c := New(smallCfg("t", 1024, 2, 1))
	c.Access(0x80, false)
	if !c.MarkDirty(0x80) {
		t.Error("MarkDirty failed on present line")
	}
	if c.MarkDirty(0xdead00) {
		t.Error("MarkDirty succeeded on absent line")
	}
	// The dirtied line must write back when evicted.
	before := c.Stats.Accesses
	setStride := uint64(1024 / 2)
	wb := false
	for i := uint64(1); i <= 3; i++ {
		if res := c.Access(0x80+i*setStride, false); res.EvictedDirty {
			wb = true
		}
	}
	if !wb {
		t.Error("no dirty writeback after MarkDirty")
	}
	if c.Stats.Accesses != before+3 {
		t.Error("MarkDirty perturbed access stats")
	}
}

func TestFlush(t *testing.T) {
	c := New(smallCfg("t", 1024, 2, 1))
	c.Access(0, true)
	c.Access(64, false)
	if d := c.Flush(); d != 1 {
		t.Errorf("Flush dropped %d dirty lines, want 1", d)
	}
	if c.Contains(0) || c.Contains(64) {
		t.Error("lines survive Flush")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Accesses: 100, Misses: 25}
	if s.MissRate() != 0.25 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
	if s.MPKI(1000) != 25 {
		t.Errorf("MPKI = %v", s.MPKI(1000))
	}
	var zero Stats
	if zero.MissRate() != 0 || zero.MPKI(0) != 0 {
		t.Error("zero stats not safe")
	}
	s2 := Stats{Accesses: 1, Misses: 1, Evictions: 1, Writebacks: 1}
	s.Add(s2)
	if s.Accesses != 101 || s.Misses != 26 {
		t.Errorf("Add = %+v", s)
	}
}

// TestAccessPastAddressSpacePanics: the last line below maxLine is held and
// evicted at its own address, dirty bit and all; a line at maxLine or past it
// has a tag + 1 that 31 bits cannot hold, and every operation on it panics
// rather than alias a lower line.
func TestAccessPastAddressSpacePanics(t *testing.T) {
	c := New(smallCfg("t", 256, 1, 1)) // direct-mapped, 4 sets
	top := uint64(maxLine-1) << lineShift
	c.Access(top, true)
	if !c.Contains(top) {
		t.Fatalf("line %#x not held", top)
	}
	res := c.Access(top&(3<<lineShift), false) // the same set's line 2
	if !res.Evicted || res.EvictedAddr != top || !res.EvictedDirty {
		t.Errorf("evicting line %#x: %+v", top, res)
	}
	ops := map[string]func(uint64){
		"read":       func(a uint64) { c.Access(a, false) },
		"write":      func(a uint64) { c.Access(a, true) },
		"insert":     func(a uint64) { c.Insert(a) },
		"mark dirty": func(a uint64) { c.MarkDirty(a) },
	}
	for name, op := range ops {
		for _, addr := range []uint64{maxLine << lineShift, 1 << 63, ^uint64(0)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %#x did not panic", name, addr)
					}
				}()
				op(addr)
			}()
		}
	}
}
