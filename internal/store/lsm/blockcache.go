package lsm

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// blockCache holds recently inflated segment blocks so point reads over a
// warm working set cost a map lookup and a block scan instead of a pread
// plus a 64 KiB inflate. It is byte-bounded LRU, shared by every segment
// of one DB; segments purge their entries on close, so a compacted-away
// segment cannot pin cache space. Blocks are immutable once cached — every
// reader scans them copy-out — which makes a single mutex around the list
// safe and cheap relative to the inflate it saves.
type blockCache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	ll    *list.List // front = most recently used
	m     map[blockCacheKey]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type blockCacheKey struct {
	seg *segment
	idx int
}

type blockCacheEntry struct {
	key  blockCacheKey
	data []byte
}

func newBlockCache(maxBytes int64) *blockCache {
	return &blockCache{max: maxBytes, ll: list.New(), m: map[blockCacheKey]*list.Element{}}
}

func (c *blockCache) get(k blockCacheKey) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.m[k]
	if ok {
		c.ll.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return el.Value.(*blockCacheEntry).data, true
}

func (c *blockCache) add(k blockCacheKey, data []byte) {
	if int64(len(data)) > c.max {
		return
	}
	c.mu.Lock()
	if el, ok := c.m[k]; ok { // racing readers inflated the same block
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.m[k] = c.ll.PushFront(&blockCacheEntry{key: k, data: data})
	c.bytes += int64(len(data))
	for c.bytes > c.max {
		el := c.ll.Back()
		ent := el.Value.(*blockCacheEntry)
		c.ll.Remove(el)
		delete(c.m, ent.key)
		c.bytes -= int64(len(ent.data))
	}
	c.mu.Unlock()
}

// dropSeg purges every block of one segment (called when the segment file
// is closed: after compaction replaced it, a reader refreshed past it, or
// the DB closed).
func (c *blockCache) dropSeg(s *segment) {
	c.mu.Lock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*blockCacheEntry)
		if ent.key.seg == s {
			c.ll.Remove(el)
			delete(c.m, ent.key)
			c.bytes -= int64(len(ent.data))
		}
		el = next
	}
	c.mu.Unlock()
}

func (c *blockCache) sizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
