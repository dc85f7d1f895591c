package cache

// referenceCache is the age-scan LRU kernel Cache replaced, kept verbatim
// (renamed) as the plain implementation the recency-ordered one is checked
// against: every way carries the tick of its last use, a lookup scans the
// whole set, and the victim is the first invalid way or else the valid way
// with the smallest age.
type referenceCache struct {
	cfg     Config
	sets    [][]refLine
	setMask uint64
	setBits uint
	tick    uint64
	Stats   Stats
}

type refLine struct {
	tag   uint64
	age   uint64
	valid bool
	dirty bool
}

func newReferenceCache(cfg Config) *referenceCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.SizeBytes / LineBytes / cfg.Assoc
	bits := uint(0)
	for s := nSets; s > 1; s >>= 1 {
		bits++
	}
	c := &referenceCache{
		cfg:     cfg,
		sets:    make([][]refLine, nSets),
		setMask: uint64(nSets - 1),
		setBits: bits,
	}
	store := make([]refLine, nSets*cfg.Assoc)
	for i := range c.sets {
		c.sets[i] = store[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return c
}

func (c *referenceCache) Access(addr uint64, write bool) AccessResult {
	c.tick++
	c.Stats.Accesses++
	lineAddr := addr >> lineShift
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr >> c.setBits

	victim, empty := -1, -1
	for i := range set {
		if !set[i].valid {
			if empty < 0 {
				empty = i
			}
			continue
		}
		if set[i].tag == tag {
			set[i].age = c.tick
			if write {
				set[i].dirty = true
			}
			return AccessResult{Hit: true}
		}
		if victim < 0 || set[i].age < set[victim].age {
			victim = i
		}
	}
	if empty >= 0 {
		victim = empty
	}

	c.Stats.Misses++
	res := AccessResult{}
	if set[victim].valid {
		c.Stats.Evictions++
		res.Evicted = true
		res.EvictedAddr = ((set[victim].tag << c.setBits) | (lineAddr & c.setMask)) << lineShift
		if set[victim].dirty {
			c.Stats.Writebacks++
			res.EvictedDirty = true
		}
	}
	set[victim] = refLine{tag: tag, age: c.tick, valid: true, dirty: write}
	return res
}

func (c *referenceCache) Insert(addr uint64) (AccessResult, bool) {
	lineAddr := addr >> lineShift
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr >> c.setBits
	victim, empty := -1, -1
	for i := range set {
		if !set[i].valid {
			if empty < 0 {
				empty = i
			}
			continue
		}
		if set[i].tag == tag {
			return AccessResult{Hit: true}, false
		}
		if victim < 0 || set[i].age < set[victim].age {
			victim = i
		}
	}
	if empty >= 0 {
		victim = empty
	}
	res := AccessResult{}
	if set[victim].valid {
		res.Evicted = true
		res.EvictedAddr = ((set[victim].tag << c.setBits) | (lineAddr & c.setMask)) << lineShift
		res.EvictedDirty = set[victim].dirty
	}
	c.tick++
	set[victim] = refLine{tag: tag, age: c.tick, valid: true}
	return res, true
}

func (c *referenceCache) MarkDirty(addr uint64) bool {
	lineAddr := addr >> lineShift
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr >> c.setBits
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].dirty = true
			return true
		}
	}
	return false
}

func (c *referenceCache) Contains(addr uint64) bool {
	lineAddr := addr >> lineShift
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr >> c.setBits
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *referenceCache) Flush() int {
	dirty := 0
	for si := range c.sets {
		for li := range c.sets[si] {
			if c.sets[si][li].valid && c.sets[si][li].dirty {
				dirty++
			}
			c.sets[si][li] = refLine{}
		}
	}
	return dirty
}
