// Package cache implements the node's cache hierarchy: set-associative
// write-back caches with LRU replacement (each set's ways kept in recency
// order, so a lookup is a scan from the most recent way and no way carries
// an age), a three-level hierarchy (private L1/L2, shared L3 modeled as a
// per-core partition, matching MUSA's single-rank detailed sampling), and the
// miss statistics (MPKI) reported in Figure 1 of the paper.
package cache

import "fmt"

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

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
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
type Cache struct {
	cfg Config
	// tags holds every set's ways back to back, assoc per set, as tag+1;
	// 0 marks an invalid way. dirty is the parallel dirty bit.
	tags    []uint64
	dirty   []bool
	assoc   int
	setMask uint64
	setBits uint
	Stats   Stats
}

// New builds a cache; it panics on invalid configuration (configurations are
// produced by the DSE enumerator, so an invalid one is a programming error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / LineBytes
	nSets := lines / cfg.Assoc
	bits := uint(0)
	for s := nSets; s > 1; s >>= 1 {
		bits++
	}
	return &Cache{
		cfg:     cfg,
		tags:    make([]uint64, lines),
		dirty:   make([]bool, lines),
		assoc:   cfg.Assoc,
		setMask: uint64(nSets - 1),
		setBits: bits,
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

// set returns the ways of the set holding lineAddr and the line's stored tag
// (tag+1).
func (c *Cache) set(lineAddr uint64) ([]uint64, []bool, uint64) {
	base := int(lineAddr&c.setMask) * c.assoc
	end := base + c.assoc
	return c.tags[base:end:end], c.dirty[base:end:end], lineAddr>>c.setBits + 1
}

// find returns the way holding tag, or -1.
func find(tags []uint64, tag uint64) int {
	for i, t := range tags {
		if t == tag {
			return i
		}
		if t == 0 {
			break
		}
	}
	return -1
}

// fill inserts tag at the front of its set, evicting the last way, and
// reports the eviction.
func (c *Cache) fill(tags []uint64, dirty []bool, tag, lineAddr uint64, write bool) AccessResult {
	last := len(tags) - 1
	var res AccessResult
	if victim := tags[last]; victim != 0 {
		res.Evicted = true
		res.EvictedAddr = (((victim - 1) << c.setBits) | (lineAddr & c.setMask)) << lineShift
		res.EvictedDirty = dirty[last]
	}
	toFront(tags, dirty, last, tag, write)
	return res
}

// toFront moves the ways before way i down one, overwriting way i, and puts
// tag with dirty bit d in the first way.
func toFront(tags []uint64, dirty []bool, i int, tag uint64, d bool) {
	for ; i > 0; i-- {
		tags[i], dirty[i] = tags[i-1], dirty[i-1]
	}
	tags[0], dirty[0] = tag, d
}

// Access looks up the line containing addr, allocating it on a miss and
// marking it dirty when write is set. It returns the outcome.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.Stats.Accesses++
	lineAddr := addr >> lineShift
	tags, dirty, tag := c.set(lineAddr)
	if i := find(tags, tag); i >= 0 {
		toFront(tags, dirty, i, tag, dirty[i] || write)
		return AccessResult{Hit: true}
	}
	c.Stats.Misses++
	res := c.fill(tags, dirty, tag, lineAddr, write)
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
	tags, dirty, tag := c.set(lineAddr)
	if find(tags, tag) >= 0 {
		return AccessResult{Hit: true}, false
	}
	return c.fill(tags, dirty, tag, lineAddr, false), true
}

// MarkDirty sets the dirty bit on the line holding addr if present, without
// touching LRU state or demand statistics (used for write-backs arriving
// from the level above). It reports whether the line was found.
func (c *Cache) MarkDirty(addr uint64) bool {
	tags, dirty, tag := c.set(addr >> lineShift)
	i := find(tags, tag)
	if i >= 0 {
		dirty[i] = true
	}
	return i >= 0
}

// Contains reports whether the line holding addr is present (test helper; it
// does not update LRU state or statistics).
func (c *Cache) Contains(addr uint64) bool {
	tags, _, tag := c.set(addr >> lineShift)
	return find(tags, tag) >= 0
}

// ResetStats zeroes the statistics counters without touching cache contents
// (used to separate warmup from the measured window).
func (c *Cache) ResetStats() { c.Stats = Stats{} }

// Flush invalidates all lines and returns the number of dirty lines dropped.
func (c *Cache) Flush() int {
	n := 0
	for i, t := range c.tags {
		if t != 0 && c.dirty[i] {
			n++
		}
	}
	clear(c.tags)
	clear(c.dirty)
	return n
}
