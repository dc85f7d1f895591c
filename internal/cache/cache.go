// Package cache implements the node's cache hierarchy: set-associative
// write-back caches with LRU replacement (each set's ways kept in recency
// order, so a lookup is a scan from the most recent way and no way carries
// an age), a three-level hierarchy (private L1/L2, shared L3 modeled as a
// per-core partition, matching MUSA's single-rank detailed sampling), and the
// miss statistics (MPKI) reported in Figure 1 of the paper.
package cache

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache line size used throughout the evaluation.
const LineBytes = 64

const lineShift = 6 // log2(LineBytes)

// Config describes one cache level.
type Config struct {
	Name         string
	SizeBytes    int
	Assoc        int
	LatencyCycle int // access latency in core cycles (hit time)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.SizeBytes%LineBytes != 0 {
		return fmt.Errorf("cache %s: size %d not a positive multiple of %d", c.Name, c.SizeBytes, LineBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache %s: associativity %d", c.Name, c.Assoc)
	}
	lines := c.SizeBytes / LineBytes
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by assoc %d", c.Name, lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets not a power of two", c.Name, sets)
	}
	return nil
}

// Stats accumulates access counters for one cache.
type Stats struct {
	Accesses   int64
	Misses     int64
	Evictions  int64
	Writebacks int64
}

// MPKI returns misses per kilo-instruction given an instruction count.
func (s Stats) MPKI(instructions int64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Misses) / float64(instructions) * 1000
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
}

// Cache is a single set-associative write-back, write-allocate cache with
// true LRU replacement. Each set keeps its ways in recency order, most
// recent first: a lookup stops at its first match, a hit moves its way to
// the front, and a fill shifts the set down one way, evicting the last.
// Valid ways are always a prefix of the set, so the first invalid way ends a
// lookup. It is not safe for concurrent use.
//
// A way is one uint32: the line's tag + 1 in its low 31 bits (0 marks an
// invalid way) and the dirty bit in bit 31. Tags are exact for every line
// address below maxLine, 128 GiB of address space; an access past it panics
// rather than alias (profiles stay below AddressLimit, see
// LocalityProfile.Validate).
//
// The ways live in blocks of consecutive sets, about blockWays ways each,
// and a block is allocated when an access first reaches one of its sets: a
// walk pays for the part of the cache its lines map to, not for the whole
// configured array (a 1-core node's L3 is the whole 32–96 MB, of which a
// sample touches a fraction).
type Cache struct {
	cfg Config
	// blocks holds the sets' ways, 1<<blockShift sets of assoc ways back to
	// back a block; a block no access has reached is nil.
	blocks     [][]uint32
	assoc      int
	setMask    uint64
	setBits    uint
	blockShift uint   // log2 of the sets a block holds
	blockMask  uint64 // the sets a block holds, less one
	Stats      Stats
}

const (
	// dirtyBit marks a way's line dirty; the other 31 bits are tag + 1.
	dirtyBit = 1 << 31
	// maxLine bounds the line addresses a cache models: below it, tag + 1
	// fits 31 bits whatever the set count.
	maxLine = 1<<31 - 1
	// blockWays is the ways a block holds: one 4 KiB page of them. A block
	// holds the largest power-of-two count of sets that fits (64 sets of 16
	// ways), at least one set, and at most the whole cache.
	blockWays = 1024
)

// New builds a cache; it panics on invalid configuration (configurations are
// produced by the DSE enumerator, so an invalid one is a programming error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.SizeBytes / LineBytes / cfg.Assoc
	setBits, blockBits := uint(bits.TrailingZeros(uint(nSets))), uint(0)
	for blockBits < setBits && cfg.Assoc<<(blockBits+1) <= blockWays {
		blockBits++
	}
	return &Cache{
		cfg:        cfg,
		blocks:     make([][]uint32, nSets>>blockBits),
		assoc:      cfg.Assoc,
		setMask:    uint64(nSets - 1),
		setBits:    setBits,
		blockShift: blockBits,
		blockMask:  1<<blockBits - 1,
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// AccessResult describes the outcome of a single-level access.
type AccessResult struct {
	EvictedAddr  uint64 // byte address of the victim line, if Evicted
	Hit          bool
	Evicted      bool
	EvictedDirty bool // the victim was dirty (a write-back is required)
}

// set returns the ways of the set holding lineAddr, allocating its block if
// no access reached it yet, and the line's stored tag (tag+1). It panics on a
// line address past maxLine, before allocating anything.
func (c *Cache) set(lineAddr uint64) ([]uint32, uint32) {
	if lineAddr >= maxLine {
		c.pastLimit(lineAddr)
	}
	blk, base, tag := c.index(lineAddr)
	b := c.blocks[blk]
	if b == nil {
		b = make([]uint32, c.assoc<<c.blockShift)
		c.blocks[blk] = b
	}
	end := base + c.assoc
	return b[base:end:end], tag
}

// peek is set for a lookup that changes nothing: the ways are nil, and hold
// no line, when no access reached the set's block.
func (c *Cache) peek(lineAddr uint64) ([]uint32, uint32) {
	if lineAddr >= maxLine {
		c.pastLimit(lineAddr)
	}
	blk, base, tag := c.index(lineAddr)
	b := c.blocks[blk]
	if b == nil {
		return nil, tag
	}
	end := base + c.assoc
	return b[base:end:end], tag
}

// index returns the block of the set holding lineAddr, the set's first way
// in it and the line's stored tag (tag+1).
func (c *Cache) index(lineAddr uint64) (blk uint64, base int, tag uint32) {
	s := lineAddr & c.setMask
	return s >> c.blockShift, int(s&c.blockMask) * c.assoc, uint32(lineAddr>>c.setBits) + 1
}

// pastLimit panics on an access to lineAddr, which no tag can hold.
func (c *Cache) pastLimit(lineAddr uint64) {
	panic(fmt.Sprintf("cache %s: address %#x is past the modelled address space", c.cfg.Name, lineAddr<<lineShift))
}

// find returns the way holding tag, or -1.
func find(ways []uint32, tag uint32) int {
	for i, w := range ways {
		if w&^dirtyBit == tag {
			return i
		}
		if w == 0 {
			break
		}
	}
	return -1
}

// fill inserts tag at the front of its set, evicting the last way, and
// reports the eviction.
func (c *Cache) fill(ways []uint32, tag uint32, lineAddr uint64, write bool) AccessResult {
	last := len(ways) - 1
	var res AccessResult
	if victim := ways[last]; victim != 0 {
		res.Evicted = true
		res.EvictedAddr = ((uint64(victim&^dirtyBit-1) << c.setBits) | (lineAddr & c.setMask)) << lineShift
		res.EvictedDirty = victim&dirtyBit != 0
	}
	if write {
		tag |= dirtyBit
	}
	toFront(ways, last, tag)
	return res
}

// toFront moves the ways before way i down one, overwriting way i, and puts
// w in the first way.
func toFront(ways []uint32, i int, w uint32) {
	for ; i > 0; i-- {
		ways[i] = ways[i-1]
	}
	ways[0] = w
}

// Access looks up the line containing addr, allocating it on a miss and
// marking it dirty when write is set. It returns the outcome.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.Stats.Accesses++
	lineAddr := addr >> lineShift
	ways, tag := c.set(lineAddr)
	if i := find(ways, tag); i >= 0 {
		w := ways[i]
		if write {
			w |= dirtyBit
		}
		toFront(ways, i, w)
		return AccessResult{Hit: true}
	}
	c.Stats.Misses++
	res := c.fill(ways, tag, lineAddr, write)
	if res.Evicted {
		c.Stats.Evictions++
		if res.EvictedDirty {
			c.Stats.Writebacks++
		}
	}
	return res
}

// Insert fills the line holding addr without touching demand statistics
// (prefetch fills). It reports whether the line was actually inserted (false
// when already present, which leaves the recency order alone) and the
// eviction outcome.
func (c *Cache) Insert(addr uint64) (AccessResult, bool) {
	lineAddr := addr >> lineShift
	ways, tag := c.set(lineAddr)
	if find(ways, tag) >= 0 {
		return AccessResult{Hit: true}, false
	}
	return c.fill(ways, tag, lineAddr, false), true
}

// MarkDirty sets the dirty bit on the line holding addr if present, without
// touching LRU state or demand statistics (used for write-backs arriving
// from the level above). It reports whether the line was found.
func (c *Cache) MarkDirty(addr uint64) bool {
	ways, tag := c.peek(addr >> lineShift)
	i := find(ways, tag)
	if i >= 0 {
		ways[i] |= dirtyBit
	}
	return i >= 0
}

// ResetStats zeroes the statistics counters without touching cache contents
// (used to separate warmup from the measured window).
func (c *Cache) ResetStats() { c.Stats = Stats{} }

// bytes returns the size of the cache's configured way array, 4 bytes a
// line, however much of it accesses have allocated.
func (c *Cache) bytes() int64 { return int64(c.cfg.SizeBytes/LineBytes) * 4 }

// Reset returns the cache to the state New left it in — every line invalid,
// statistics zero — without allocating: it clears the blocks accesses
// allocated and keeps them, so a walk that reuses a cache built for an
// earlier one behaves exactly as on a new cache.
func (c *Cache) Reset() {
	for _, b := range c.blocks {
		clear(b)
	}
	c.Stats = Stats{}
}

// Flush invalidates all lines and returns the number of dirty lines dropped.
func (c *Cache) Flush() int {
	n := 0
	for _, b := range c.blocks {
		for _, w := range b {
			if w&dirtyBit != 0 {
				n++
			}
		}
		clear(b)
	}
	return n
}
