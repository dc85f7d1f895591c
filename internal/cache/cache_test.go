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

// allocated returns the blocks of c accesses have allocated.
func (c *Cache) allocated() int {
	n := 0
	for _, b := range c.blocks {
		if b != nil {
			n++
		}
	}
	return n
}

// TestCacheBlocks pins the block geometry: a block holds the largest
// power-of-two count of sets whose ways fit 1 024, at least one set and at
// most the whole cache.
func TestCacheBlocks(t *testing.T) {
	for _, tc := range []struct {
		sets, assoc, blockSets int
	}{
		{256, 16, 64}, {4096, 1, 1024}, {1024, 3, 256}, {4, 2, 4}, {8, 2048, 1}, {1 << 16, 16, 64},
	} {
		c := New(smallCfg("t", tc.sets*tc.assoc*LineBytes, tc.assoc, 1))
		if got := 1 << c.blockShift; got != tc.blockSets || len(c.blocks) != tc.sets/tc.blockSets {
			t.Errorf("%d sets of %d ways: %d blocks of %d sets, want %d of %d",
				tc.sets, tc.assoc, len(c.blocks), got, tc.sets/tc.blockSets, tc.blockSets)
		}
		if c.allocated() != 0 || c.bytes() != int64(tc.sets*tc.assoc*4) {
			t.Errorf("%d sets of %d ways: a new cache allocated %d blocks, or reports %d bytes",
				tc.sets, tc.assoc, c.allocated(), c.bytes())
		}
	}
}

// TestCacheAllocatesTouchedBlocks: a stream over k of a cache's blocks
// allocates exactly those k, and lookups of untouched blocks allocate
// nothing; Reset clears the blocks and keeps them, so the stream run again
// allocates nothing; Flush counts the dirty lines of every block; and an
// access past maxLine panics before allocating.
func TestCacheAllocatesTouchedBlocks(t *testing.T) {
	cfg := smallCfg("t", 256*16*LineBytes, 16, 1) // four blocks of 64 sets
	touched := []int{0, 2, 3}
	stream := func(c *Cache) {
		for _, b := range touched {
			for s := range 64 {
				line := uint64(b*64 + s)
				c.Access(line<<lineShift, s%2 == 0)
				c.Access((line+256)<<lineShift, false)
			}
		}
		c.MarkDirty(64 << lineShift) // block 1: absent, and not allocated for
		c.Contains(65 << lineShift)
	}
	if n := testing.AllocsPerRun(1, func() { stream(New(cfg)) }); n != float64(len(touched)+2) {
		t.Errorf("a stream over %d blocks allocates %.0f times, want %d: the cache, its block index and a block each",
			len(touched), n, len(touched)+2)
	}
	c := New(cfg)
	stream(c)
	if c.allocated() != len(touched) || c.blocks[1] != nil {
		t.Fatalf("%d blocks allocated (block 1: %v), want blocks %v", c.allocated(), c.blocks[1] != nil, touched)
	}
	for _, b := range touched {
		if len(c.blocks[b]) != blockWays {
			t.Errorf("block %d holds %d ways, want %d", b, len(c.blocks[b]), blockWays)
		}
	}
	if n := testing.AllocsPerRun(5, func() { c.Reset(); stream(c) }); n != 0 {
		t.Errorf("the stream on a reset cache allocates %.0f times, want 0", n)
	}
	if c.allocated() != len(touched) {
		t.Errorf("%d blocks kept across Reset, want %d", c.allocated(), len(touched))
	}
	if d := c.Flush(); d != 32*len(touched) {
		t.Errorf("Flush dropped %d dirty lines, want %d", d, 32*len(touched))
	}
	if d := c.Flush(); d != 0 || c.Contains(0) || c.allocated() != len(touched) {
		t.Errorf("a flushed cache holds lines (%d dirty) or lost blocks (%d kept)", d, c.allocated())
	}
	fresh := New(cfg)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an access past maxLine did not panic")
			}
		}()
		fresh.Access(maxLine<<lineShift, true)
	}()
	if fresh.allocated() != 0 {
		t.Errorf("an access past maxLine allocated %d blocks", fresh.allocated())
	}
}
