// Package lsm is the storage engine under the result and artifact stores:
// a log-structured merge tree tuned for the reproduction's access pattern —
// content-addressed keys, read-dominated traffic with a heavy
// never-computed-key miss path, no deletes.
//
// Writes land in a WAL-backed memtable and are flushed to sorted, immutable
// segment files: block-compressed key/value runs with a sparse index and a
// per-segment bloom filter, so the dominant case at serve scale (a miss on
// a key nobody ever computed) is rejected without touching a data block.
// Size-tiered compaction folds accumulated segments together.
//
// The engine starts no goroutine. The Put that fills the WAL to its bound
// flushes the memtable and, when a size tier is full, compacts it, on its
// own call; writers serialize on one mutex while readers keep reading, since
// the segment write and the merge run outside the lock readers take.
//
// The engine is single-writer/many-reader by design: exactly one process
// may open a directory for writing (an advisory flock on wal.lock; a second
// writer gets ErrBusy), while any number of processes may open it read-only
// with no lock at all. The writer publishes state changes by writing whole
// segment files and atomically renaming a versioned MANIFEST into place;
// readers re-stat the MANIFEST on a full miss and reload when it moved, so
// a warm serve replica tracks a store another process is writing.
package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"syscall"
)

// Errors the engine reports as typed sentinels.
var (
	// ErrBusy is returned by Open when a second writer requests a
	// directory whose writer lock is already held.
	ErrBusy = errors.New("lsm: store is open for writing by another process")
	// ErrReadOnly is returned by Put on a read-only handle.
	ErrReadOnly = errors.New("lsm: store opened read-only")
)

var errClosed = errors.New("lsm: store is closed")

// Engine sizing. Exported so the layers above (store, client, /stats) can
// report the effective configuration without re-stating the numbers.
const (
	// DefaultMemtableBytes is the WAL bound that triggers a flush.
	DefaultMemtableBytes = 4 << 20
	// BlockCacheBytes bounds the inflated-block LRU cache.
	BlockCacheBytes = 8 << 20
)

// Options tunes an engine instance.
type Options struct {
	// ReadOnly opens the directory without the writer lock: Put fails with
	// ErrReadOnly, the WAL is not replayed (a live writer owns its tail),
	// and the segment set is refreshed from the MANIFEST when it changes.
	ReadOnly bool
	// MemtableBytes flushes the memtable to a segment once the WAL written
	// since the last flush reaches this many bytes (0 = 4 MiB). Every
	// memtable byte came from a WAL record, so the bound holds for both.
	MemtableBytes int
	// OnCompaction, if set, observes each completed compaction's duration
	// in seconds (the obs bridge registers a histogram here). It runs on
	// the writer's path and must not call back into the DB.
	OnCompaction func(seconds float64)
}

// Stats is a snapshot of the engine counters. All counters are cumulative
// since Open except the gauges (MemtableBytes, MemtableKeys, Segments*).
type Stats struct {
	Gets   int64 `json:"gets"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`

	// MemtableHits counts gets served by the mutable memtable.
	MemtableHits  int64 `json:"memtableHits"`
	MemtableBytes int64 `json:"memtableBytes"`
	MemtableKeys  int64 `json:"memtableKeys"`

	// BloomChecks / BloomRejects / BloomFalsePositives count per-segment
	// filter probes: a reject skips the segment without I/O; a false
	// positive paid a block read that found nothing.
	BloomChecks         int64 `json:"bloomChecks"`
	BloomRejects        int64 `json:"bloomRejects"`
	BloomFalsePositives int64 `json:"bloomFalsePositives"`

	// SegmentReads counts data-block reads (one pread + decompress each);
	// a block-cache hit serves the inflated block without one.
	SegmentReads    int64 `json:"segmentReads"`
	BlockCacheHits  int64 `json:"blockCacheHits"`
	BlockCacheMiss  int64 `json:"blockCacheMisses"`
	BlockCacheBytes int64 `json:"blockCacheBytes"`

	// Segments is the live segment count; SegmentsPerTier maps size tier
	// (log4 of bytes over 1 MiB) to count.
	Segments        int         `json:"segments"`
	SegmentsPerTier map[int]int `json:"segmentsPerTier"`
	SegmentBytes    int64       `json:"segmentBytes"`
	Flushes         int64       `json:"flushes"`
	Compactions     int64       `json:"compactions"`
	CompactionSecs  float64     `json:"compactionSeconds"`
	WALBytes        int64       `json:"walBytes"`
	WALReplayed     int64       `json:"walReplayed"`
	WALTornTail     bool        `json:"walTornTail"`
	ManifestVersion int64       `json:"manifestVersion"`
	Keys            int         `json:"keys"`
	ReadOnly        bool        `json:"readOnly"`
	Refreshes       int64       `json:"refreshes"`
}

// DB is one open engine instance. All methods are safe for concurrent use.
//
// Two locks: wmu serializes writers (Put, Flush, Close), and only a writer
// holding it mutates the memtable, the segment list, the manifest or the
// WAL, so a writer reads all four without mu. mu guards them against
// readers: writers hold it for write only to insert into the memtable and
// to swap in a new segment list, manifest and memtable.
type DB struct {
	dir      string
	opts     Options
	readOnly bool

	wmu    sync.Mutex
	closed bool // guarded by wmu
	wal    *wal // guarded by wmu
	lock   *os.File

	mu       sync.RWMutex
	mem      *memtable
	segs     []*segment // recency order: oldest first, newest last
	manifest manifest

	bcache *blockCache // shared inflated-block cache

	c counters
}

// Open opens (creating if needed, unless read-only) the engine rooted at
// dir. A writer replays the WAL tail — tolerating a torn final record — and
// takes the writer lock; a second writer gets an error wrapping ErrBusy.
func Open(dir string, opts Options) (*DB, error) {
	db := &DB{dir: dir, opts: opts, readOnly: opts.ReadOnly, bcache: newBlockCache(BlockCacheBytes)}
	if opts.MemtableBytes <= 0 {
		db.opts.MemtableBytes = DefaultMemtableBytes
	}
	if db.readOnly {
		return db, db.openReadOnly()
	}
	return db, db.openWriter()
}

func (db *DB) openWriter() error {
	if err := os.MkdirAll(db.dir, 0o755); err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(db.dir, "wal.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return fmt.Errorf("lsm: %s: %w", db.dir, ErrBusy)
	}
	if err := db.load(); err != nil {
		lock.Close()
		return err
	}
	db.lock = lock
	return nil
}

// load reads the MANIFEST and its segments, sweeps orphans and replays
// the WAL tail: records beyond the last completed flush. A record torn by
// a kill mid-append ends the replay at the intact prefix — the store is
// never refused.
func (db *DB) load() error {
	man, err := loadManifest(db.dir)
	if err != nil {
		return err
	}
	db.manifest = man
	if err := db.openSegments(); err != nil {
		return err
	}
	db.removeOrphans()
	db.mem = newMemtable()
	apply := func(k string, v []byte) {
		if fresh := db.mem.put(k, v); fresh && !db.hasInSegments(k) {
			db.manifest.Keys++
		}
	}
	walPath := filepath.Join(db.dir, "wal.log")
	// Earlier releases flushed in the background, and a kill mid-flush left
	// acknowledged puts in wal.log.old. It replays under the live log and
	// both fold into a segment before any write lands.
	oldPath := walPath + ".old"
	old, err := os.ReadFile(oldPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("lsm: wal: %w", err)
	}
	oldIntact, oldReplayed := replayRecords(old, apply)
	w, replayed, torn, err := openWAL(walPath, apply)
	if err != nil {
		return err
	}
	db.wal = w
	db.c.walReplayed.Store(oldReplayed + replayed)
	if torn || oldIntact < len(old) {
		db.c.walTorn.Store(1)
	}
	if oldReplayed > 0 {
		if err := db.flush(); err != nil {
			w.close()
			return err
		}
	}
	os.Remove(oldPath)
	return nil
}

func (db *DB) openReadOnly() error {
	man, err := loadManifest(db.dir)
	if err != nil {
		return err
	}
	db.manifest = man
	db.mem = newMemtable() // stays empty; satisfies the read path
	return db.openSegments()
}

// openSegments opens a reader for every manifest segment. Caller owns mu or
// is in Open.
func (db *DB) openSegments() error {
	segs := make([]*segment, 0, len(db.manifest.Segments))
	for _, ms := range db.manifest.Segments {
		s, err := openSegment(filepath.Join(db.dir, segName(ms.ID)), db.bcache)
		if err != nil {
			for _, o := range segs {
				o.close()
			}
			return fmt.Errorf("lsm: segment %d: %w", ms.ID, err)
		}
		segs = append(segs, s)
	}
	db.segs = segs
	return nil
}

// removeOrphans deletes segment and temp files not referenced by the
// MANIFEST — the leftovers of a compaction or flush killed before its
// manifest commit. The manifest is the only source of truth, so a killed
// compaction leaves it pointing at the pre-compaction (consistent) set and
// its half-written output is swept here.
func (db *DB) removeOrphans() {
	live := map[string]bool{}
	for _, ms := range db.manifest.Segments {
		live[segName(ms.ID)] = true
	}
	ents, err := os.ReadDir(db.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if live[name] {
			continue
		}
		if isSegName(name) || isSegTempName(name) {
			os.Remove(filepath.Join(db.dir, name))
		}
	}
}

// hasInSegments reports whether key exists in any live segment (bloom-
// guarded; used to keep the exact key count while replaying the WAL and
// applying puts). It bypasses the read counters so put-path bookkeeping
// does not pollute the bloom false-positive rate. Caller is the writer.
func (db *DB) hasInSegments(key string) bool {
	if len(db.segs) == 0 {
		return false
	}
	h1, h2 := bloomHash(key)
	for i := len(db.segs) - 1; i >= 0; i-- {
		s := db.segs[i]
		if !s.bloom.test(h1, h2) {
			continue
		}
		if v, err := s.find(key, nil); err == nil && v != nil {
			return true
		}
	}
	return false
}

// Get returns the value stored under key.
func (db *DB) Get(key string) ([]byte, bool) {
	db.c.gets.Add(1)
	db.mu.RLock()
	if v, ok := db.mem.get(key); ok {
		db.mu.RUnlock()
		db.c.memHits.Add(1)
		db.c.hits.Add(1)
		return v, true
	}
	v, ok := db.getFromSegments(key)
	db.mu.RUnlock()
	if !ok && db.readOnly {
		// A reader's view is the MANIFEST it loaded; the writer may have
		// published since. One stat tells us; reload only when it moved.
		if db.refreshIfStale() {
			db.mu.RLock()
			v, ok = db.getFromSegments(key)
			db.mu.RUnlock()
		}
	}
	if ok {
		db.c.hits.Add(1)
	}
	// Misses are derived (gets - hits) so the dominant absent-key path pays
	// one less atomic.
	return v, ok
}

// getFromSegments searches newest-to-oldest. The bloom hashes are computed
// once per lookup and shared across every segment probe, and the probe
// counters are batched into two atomic adds per lookup; an empty segment
// set costs nothing at all. Caller holds mu (read).
func (db *DB) getFromSegments(key string) ([]byte, bool) {
	if len(db.segs) == 0 {
		return nil, false
	}
	h1, h2 := bloomHash(key)
	var checks, rejects int64
	for i := len(db.segs) - 1; i >= 0; i-- {
		s := db.segs[i]
		checks++
		if !s.bloom.test(h1, h2) {
			rejects++
			continue
		}
		if v, err := s.find(key, &db.c); err == nil && v != nil {
			db.c.bloomChecks.Add(checks)
			db.c.bloomRejects.Add(rejects)
			return v, true
		}
	}
	db.c.bloomChecks.Add(checks)
	db.c.bloomRejects.Add(rejects)
	return nil, false
}

// Put stores value under key: one durable WAL append plus a memtable
// insert. The Put that brings the WAL to its bound also flushes (and, when
// a tier fills, compacts) before it returns. If that flush fails, Put
// reports it, but the record is durable in the WAL and served from the
// memtable, and the next Put or Flush retries.
func (db *DB) Put(key string, value []byte) error {
	if db.readOnly {
		return ErrReadOnly
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return errClosed
	}
	n, err := db.wal.append(key, value)
	if err != nil {
		return err
	}
	db.c.walBytes.Add(int64(n))
	// Off mu: the segment probe may read a block.
	_, known := db.mem.get(key)
	known = known || db.hasInSegments(key)
	db.mu.Lock()
	db.mem.put(key, value)
	if !known {
		db.manifest.Keys++
	}
	db.mu.Unlock()
	db.c.puts.Add(1)
	if db.wal.size < int64(db.opts.MemtableBytes) {
		return nil
	}
	if err := db.flush(); err != nil {
		return fmt.Errorf("lsm: put logged, flush failed: %w", err)
	}
	return nil
}

// Flush persists everything buffered in memory as a segment, publishing it
// to concurrent readers via the MANIFEST, and truncates the WAL.
func (db *DB) Flush() error {
	if db.readOnly {
		return ErrReadOnly
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return errClosed
	}
	return db.flush()
}

// flush writes a non-empty memtable out as a segment, commits a MANIFEST
// listing it, publishes segment list, manifest and a fresh memtable to
// readers in one swap, and resets the WAL; then it compacts while a tier
// is full. Sorting and compression run outside mu, so reads proceed
// meanwhile. On failure nothing is published: the memtable, the segment
// list and the manifest stay as they were, the new segment file is
// removed, and the WAL still covers every record. Caller holds wmu.
func (db *DB) flush() error {
	if db.mem.len() == 0 {
		return nil
	}
	id := db.manifest.NextSeg
	path := filepath.Join(db.dir, segName(id))
	info, err := writeSegment(path, db.mem.sorted())
	if err != nil {
		return err
	}
	seg, err := openSegment(path, db.bcache)
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("lsm: segment %d: %w", id, err)
	}
	man := db.manifest
	man.NextSeg++
	man.Segments = append(slices.Clip(man.Segments), manifestSegment{ID: id, Keys: info.keys, Bytes: info.bytes})
	if err := man.commit(db.dir); err != nil {
		seg.close()
		os.Remove(path)
		return err
	}
	db.mu.Lock()
	db.manifest = man
	db.segs = append(slices.Clip(db.segs), seg)
	db.mem = newMemtable()
	db.mu.Unlock()
	db.c.flushes.Add(1)
	if err := db.wal.reset(); err != nil {
		return err
	}
	// A failed merge publishes nothing and leaves the tier full, so the
	// next flush retries it; the flush itself has succeeded.
	_ = db.compact()
	return nil
}

// Len returns the number of distinct keys stored (exact: maintained
// incrementally by the writer and persisted in the MANIFEST).
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.manifest.Keys
}

// Scan calls fn for every live key/value pair (newest version of each key),
// in unspecified order. It is the store's open-time warm, not a hot path:
// segments are read oldest-to-newest with later versions overwriting
// earlier ones in the visit set.
func (db *DB) Scan(fn func(key string, value []byte) error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seen := map[string][]byte{}
	for _, s := range db.segs {
		if err := s.scan(func(k string, v []byte) error {
			seen[k] = v
			return nil
		}); err != nil {
			return err
		}
	}
	for k, v := range db.mem.m {
		seen[k] = v
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := fn(k, seen[k]); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a snapshot of the engine counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	gets, hits := db.c.gets.Load(), db.c.hits.Load()
	st := Stats{
		Gets:                gets,
		Hits:                hits,
		Misses:              gets - hits,
		Puts:                db.c.puts.Load(),
		MemtableHits:        db.c.memHits.Load(),
		MemtableBytes:       int64(db.mem.bytes),
		MemtableKeys:        int64(db.mem.len()),
		BloomChecks:         db.c.bloomChecks.Load(),
		BloomRejects:        db.c.bloomRejects.Load(),
		BloomFalsePositives: db.c.bloomFP.Load(),
		SegmentReads:        db.c.segReads.Load(),
		Segments:            len(db.segs),
		BlockCacheHits:      db.bcache.hits.Load(),
		BlockCacheMiss:      db.bcache.misses.Load(),
		BlockCacheBytes:     db.bcache.sizeBytes(),
		SegmentsPerTier:     map[int]int{},
		Flushes:             db.c.flushes.Load(),
		Compactions:         db.c.compactions.Load(),
		CompactionSecs:      float64(db.c.compactionNs.Load()) / 1e9,
		WALBytes:            db.c.walBytes.Load(),
		WALReplayed:         db.c.walReplayed.Load(),
		WALTornTail:         db.c.walTorn.Load() != 0,
		ManifestVersion:     db.manifest.Version,
		Keys:                db.manifest.Keys,
		ReadOnly:            db.readOnly,
		Refreshes:           db.c.refreshes.Load(),
	}
	for _, ms := range db.manifest.Segments {
		st.SegmentsPerTier[tierOf(ms.Bytes)]++
		st.SegmentBytes += ms.Bytes
	}
	db.mu.RUnlock()
	return st
}

// Close flushes the memtable (writer) and releases every handle.
func (db *DB) Close() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	var err error
	if !db.readOnly {
		err = db.flush()
	}
	db.mu.Lock()
	for _, s := range db.segs {
		s.close()
	}
	db.mu.Unlock()
	if db.wal != nil {
		if cerr := db.wal.close(); err == nil {
			err = cerr
		}
	}
	if db.lock != nil {
		if cerr := db.lock.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
