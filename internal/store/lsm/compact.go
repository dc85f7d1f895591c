package lsm

import (
	"container/heap"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Size-tiered compaction: segments of similar size accumulate as the
// memtable flushes; once a tier holds compactAt of them the flush that
// filled it merges them into one segment of the next tier. Because the
// engine has no per-record sequence numbers, only segments contiguous in
// recency order merge — last-write-wins is then simply "the newer segment
// of the run wins" — which flush order produces naturally. The merge
// streams block-by-block (bounded memory) into a new segment, commits it in
// a single MANIFEST replace, then deletes the inputs; a kill at any point
// leaves the old manifest and therefore a consistent store.

// compactAt is the number of same-tier segments that triggers a merge.
const compactAt = 4

// tierOf buckets a segment size: tier n covers (1MiB*4^(n-1), 1MiB*4^n].
func tierOf(bytes int64) int {
	tier := 0
	for s := bytes; s > 1<<20; s >>= 2 {
		tier++
	}
	return tier
}

// compactable returns the [lo, hi) bounds of the oldest contiguous run of
// at least compactAt same-tier segments, or nil. Caller is the writer.
func (db *DB) compactable() []int {
	segs := db.manifest.Segments
	for lo := 0; lo+compactAt <= len(segs); {
		t := tierOf(segs[lo].Bytes)
		hi := lo + 1
		for hi < len(segs) && tierOf(segs[hi].Bytes) == t {
			hi++
		}
		if hi-lo >= compactAt {
			return []int{lo, hi}
		}
		lo = hi
	}
	return nil
}

// mergeSource is one input of the k-way merge; pos is the input's index in
// the run (higher = newer, wins ties).
type mergeSource struct {
	it   *segIter
	pos  int
	key  string
	val  []byte
	done bool
}

func (m *mergeSource) advance() error {
	k, v, ok, err := m.it.next()
	if err != nil {
		return err
	}
	m.key, m.val, m.done = k, v, !ok
	return nil
}

// mergeHeap orders sources by (key, newest first).
type mergeHeap []*mergeSource

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].pos > h[j].pos
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*mergeSource)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// compact folds compactable runs together until none remain. Caller holds
// wmu.
func (db *DB) compact() error {
	for {
		did, err := db.compactOnce()
		if err != nil || !did {
			return err
		}
	}
}

// compactOnce merges one run; reports whether it did anything. The merge
// runs outside mu — only the writer changes the segment set, and it is
// the caller — and only the swap of the published state takes it.
func (db *DB) compactOnce() (bool, error) {
	r := db.compactable()
	if r == nil {
		return false, nil
	}
	lo, hi := r[0], r[1]
	run := db.segs[lo:hi]
	var expect int
	for _, ms := range db.manifest.Segments[lo:hi] {
		expect += ms.Keys
	}
	id := db.manifest.NextSeg

	start := time.Now()
	path := filepath.Join(db.dir, segName(id))
	w, err := newSegmentWriter(path, expect)
	if err != nil {
		return false, err
	}
	h := make(mergeHeap, 0, len(run))
	for i, s := range run {
		src := &mergeSource{it: s.iter(), pos: i}
		if err := src.advance(); err != nil {
			w.abort()
			return false, err
		}
		if !src.done {
			h = append(h, src)
		}
	}
	heap.Init(&h)
	keys := 0
	var last string
	for h.Len() > 0 {
		src := h[0]
		if keys == 0 || src.key != last {
			if err := w.add(src.key, src.val); err != nil {
				w.abort()
				return false, err
			}
			last = src.key
			keys++
		}
		if err := src.advance(); err != nil {
			w.abort()
			return false, err
		}
		if src.done {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	info, err := w.finish()
	if err != nil {
		return false, err
	}
	merged, err := openSegment(path, db.bcache)
	if err != nil {
		os.Remove(path)
		return false, fmt.Errorf("lsm: reopen merged segment: %w", err)
	}

	// Commit: replace the run in manifest and segment list, in one
	// manifest write.
	man := db.manifest
	man.NextSeg++
	man.Segments = make([]manifestSegment, 0, len(db.manifest.Segments)-(hi-lo)+1)
	man.Segments = append(man.Segments, db.manifest.Segments[:lo]...)
	man.Segments = append(man.Segments, manifestSegment{ID: id, Keys: info.keys, Bytes: info.bytes})
	man.Segments = append(man.Segments, db.manifest.Segments[hi:]...)
	if err := man.commit(db.dir); err != nil {
		merged.close()
		os.Remove(path)
		return false, err
	}
	segs := make([]*segment, 0, len(db.segs)-(hi-lo)+1)
	segs = append(segs, db.segs[:lo]...)
	segs = append(segs, merged)
	segs = append(segs, db.segs[hi:]...)
	oldList := db.manifest.Segments
	db.mu.Lock()
	db.manifest = man
	db.segs = segs
	db.mu.Unlock()

	for i, s := range run {
		s.close()
		os.Remove(filepath.Join(db.dir, segName(oldList[lo+i].ID)))
	}
	dur := time.Since(start)
	db.c.compactions.Add(1)
	db.c.compactionNs.Add(dur.Nanoseconds())
	if db.opts.OnCompaction != nil {
		db.opts.OnCompaction(dur.Seconds())
	}
	return true, nil
}
