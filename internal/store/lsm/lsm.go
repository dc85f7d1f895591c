// Package lsm is the storage engine under the result and artifact stores:
// a log-structured merge tree tuned for the reproduction's access pattern —
// content-addressed keys, read-dominated traffic with a heavy
// never-computed-key miss path, no deletes.
//
// Writes land in a WAL-backed memtable and are flushed to sorted, immutable
// segment files: block-compressed key/value runs with a sparse index and a
// per-segment bloom filter, so the dominant case at serve scale (a miss on
// a key nobody ever computed) is rejected without touching a data block.
// Size-tiered background compaction folds accumulated segments together.
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

// Default sizing applied when Options leaves the corresponding knob zero.
// Exported so the layers above (store, client, /stats) can report the
// effective configuration without re-stating the numbers.
const (
	// DefaultMemtableBytes is the memtable flush threshold.
	DefaultMemtableBytes = 4 << 20
	// DefaultBlockCacheBytes bounds the inflated-block LRU cache.
	DefaultBlockCacheBytes = 8 << 20
)

// Options tunes an engine instance.
type Options struct {
	// ReadOnly opens the directory without the writer lock: Put fails with
	// ErrReadOnly, the WAL is not replayed (a live writer owns its tail),
	// and the segment set is refreshed from the MANIFEST when it changes.
	ReadOnly bool
	// MemtableBytes flushes the memtable to a segment once its payload
	// exceeds this bound (0 = 4 MiB).
	MemtableBytes int
	// BlockCacheBytes bounds the shared cache of inflated segment blocks
	// that point reads are served through (0 = 8 MiB, <0 disables).
	BlockCacheBytes int64
	// CompactAt folds a tier's segments together once the tier holds at
	// least this many (0 = 4; <0 disables background compaction).
	CompactAt int
	// NoCompact disables background compaction (crash tests drive
	// compaction explicitly).
	NoCompact bool
	// OnCompaction, if set, observes each completed compaction's duration
	// in seconds (the obs bridge registers a histogram here).
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
type DB struct {
	dir      string
	opts     Options
	readOnly bool

	mu       sync.RWMutex
	mem      *memtable
	imm      *memtable  // snapshot a background flush is writing; nil otherwise
	segs     []*segment // recency order: oldest first, newest last
	manifest manifest
	wal      *wal
	lock     *os.File
	closed   bool
	// flushErr is the sticky background-flush failure: rotation stops (the
	// .old log is the snapshot's only durable copy) and the next explicit
	// Flush retries synchronously and surfaces it.
	flushErr  error
	flushCond *sync.Cond // signals imm == nil; lazily bound to &mu

	// maintenance serializes flush-triggered compaction with Close.
	maintWG sync.WaitGroup
	maintMu sync.Mutex

	bcache *blockCache // shared inflated-block cache; nil when disabled

	c counters
}

// Open opens (creating if needed, unless read-only) the engine rooted at
// dir. A writer replays the WAL tail — tolerating a torn final record — and
// takes the writer lock; a second writer gets an error wrapping ErrBusy.
func Open(dir string, opts Options) (*DB, error) {
	db := &DB{dir: dir, opts: opts, readOnly: opts.ReadOnly}
	db.flushCond = sync.NewCond(&db.mu)
	if opts.MemtableBytes <= 0 {
		db.opts.MemtableBytes = DefaultMemtableBytes
	}
	if opts.CompactAt <= 0 {
		db.opts.CompactAt = 4
	}
	if opts.BlockCacheBytes == 0 {
		db.opts.BlockCacheBytes = DefaultBlockCacheBytes
	}
	db.bcache = newBlockCache(db.opts.BlockCacheBytes)
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
	db.lock = lock
	man, err := loadManifest(db.dir)
	if err != nil {
		lock.Close()
		return err
	}
	db.manifest = man
	if err := db.openSegments(); err != nil {
		lock.Close()
		return err
	}
	db.removeOrphans()
	db.mem = newMemtable()
	// Replay the WAL tail: records beyond the last completed flush. The
	// .old generation (left by a kill mid-flush) replays first, then the
	// live log on top. A record torn by a kill mid-append ends that
	// generation's replay at the intact prefix — the store is never
	// refused.
	apply := func(k string, v []byte) {
		if fresh := db.mem.put(k, v); fresh && !db.hasInSegments(k) {
			db.manifest.Keys++
		}
	}
	walPath := filepath.Join(db.dir, "wal.log")
	oldReplayed, oldTorn, err := replayWALFile(walPath+walOldSuffix, apply)
	if err != nil {
		lock.Close()
		return err
	}
	w, replayed, torn, err := openWAL(walPath, apply)
	if err != nil {
		lock.Close()
		return err
	}
	db.wal = w
	db.c.walReplayed.Store(oldReplayed + replayed)
	if torn || oldTorn {
		db.c.walTorn.Store(1)
	}
	if oldReplayed > 0 {
		// Fold both generations into a segment now so the .old file (whose
		// name the next rotation needs) is retired before any writes land.
		if err := db.flushSyncLocked(); err != nil {
			lock.Close()
			return err
		}
	} else {
		os.Remove(walPath + walOldSuffix) // empty or all-torn leftover
	}
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
		s, err := openSegment(filepath.Join(db.dir, segName(ms.ID)))
		if err != nil {
			for _, o := range segs {
				o.close()
			}
			return fmt.Errorf("lsm: segment %d: %w", ms.ID, err)
		}
		s.bc = db.bcache
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
// does not pollute the bloom false-positive rate. Caller owns mu or is in
// Open.
func (db *DB) hasInSegments(key string) bool {
	if len(db.segs) == 0 {
		return false
	}
	h1, h2 := bloomHash(key)
	for i := len(db.segs) - 1; i >= 0; i-- {
		if v, err := db.segs[i].get(key, h1, h2, nil); err == nil && v != nil {
			return true
		}
	}
	return false
}

// Get returns the value stored under key.
func (db *DB) Get(key string) ([]byte, bool) {
	db.c.gets.Add(1)
	db.mu.RLock()
	if v, ok := db.getFromMemtables(key); ok {
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

// getFromMemtables checks the mutable memtable, then the immutable flush
// snapshot. Caller holds mu (read).
func (db *DB) getFromMemtables(key string) ([]byte, bool) {
	if v, ok := db.mem.get(key); ok {
		return v, true
	}
	if db.imm != nil {
		return db.imm.get(key)
	}
	return nil, false
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

// Has reports whether key is stored, at bloom-filter cost for absent keys.
func (db *DB) Has(key string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if _, ok := db.getFromMemtables(key); ok {
		return true
	}
	_, ok := db.getFromSegments(key)
	return ok
}

// Put stores value under key: one durable WAL append plus a memtable
// insert. Once the memtable exceeds its bound it rotates to an immutable
// snapshot that a background goroutine flushes, so a Put never waits for
// segment compression.
func (db *DB) Put(key string, value []byte) error {
	if db.readOnly {
		return ErrReadOnly
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return errors.New("lsm: store is closed")
	}
	n, err := db.wal.append(key, value)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	db.c.walBytes.Add(int64(n))
	if fresh := db.mem.put(key, value); fresh {
		inImm := false
		if db.imm != nil {
			_, inImm = db.imm.get(key)
		}
		if !inImm && !db.hasInSegments(key) {
			db.manifest.Keys++
		}
	}
	db.c.puts.Add(1)
	var rotErr error
	if db.mem.bytes >= db.opts.MemtableBytes && db.imm == nil && db.flushErr == nil {
		rotErr = db.rotateLocked()
	}
	db.mu.Unlock()
	return rotErr
}

// rotateLocked snapshots the memtable for a background flush: the live WAL
// becomes the .old generation covering the snapshot, a fresh log takes new
// writes, and a worker compresses the segment outside the lock. Caller
// holds mu (write); imm must be nil and flushErr clear.
func (db *DB) rotateLocked() error {
	if err := db.wal.rotate(); err != nil {
		return err
	}
	db.imm = db.mem
	db.mem = newMemtable()
	db.maintWG.Add(1)
	go db.flushImm(db.imm)
	return nil
}

// flushImm writes the immutable snapshot out as a segment — the sort and
// flate compression run outside the lock, so Put and Get never stall
// behind a flush — then re-locks to publish it. On failure the snapshot
// folds back into the memtable and the .old log (its only durable copy) is
// kept; rotation stays off until a successful explicit Flush clears the
// sticky error.
func (db *DB) flushImm(imm *memtable) {
	defer db.maintWG.Done()
	db.mu.Lock()
	id := db.manifest.NextSeg
	db.manifest.NextSeg++ // reserved; a failed flush just skips the id
	db.mu.Unlock()

	path := filepath.Join(db.dir, segName(id))
	info, err := writeSegment(path, imm.sorted())
	var seg *segment
	if err == nil {
		if seg, err = openSegment(path); err == nil {
			seg.bc = db.bcache
		}
	}

	db.mu.Lock()
	defer func() {
		db.imm = nil
		db.flushCond.Broadcast()
		db.mu.Unlock()
	}()
	if err == nil {
		db.manifest.Segments = append(db.manifest.Segments, manifestSegment{
			ID: id, Keys: info.keys, Bytes: info.bytes,
		})
		if cerr := db.manifest.commit(db.dir); cerr != nil {
			db.manifest.Segments = db.manifest.Segments[:len(db.manifest.Segments)-1]
			seg.close()
			err = cerr
		}
	}
	if err != nil {
		os.Remove(path)
		db.flushErr = err
		// Fold the snapshot back under the live memtable: keys written since
		// the rotation stay newer, everything else becomes visible again.
		for k, v := range imm.m {
			if _, ok := db.mem.m[k]; !ok {
				db.mem.put(k, v)
			}
		}
		return
	}
	db.segs = append(db.segs, seg)
	db.c.flushes.Add(1)
	os.Remove(db.wal.path + walOldSuffix)
	if !db.opts.NoCompact && db.compactable() != nil {
		db.maintWG.Add(1)
		go func() {
			defer db.maintWG.Done()
			db.Compact() // serialized internally; errors surface in Stats via segment counts
		}()
	}
}

// Flush synchronously persists everything buffered in memory: it waits out
// any in-flight background flush (surfacing its failure by retrying the
// write), then flushes the live memtable as a segment and truncates the
// WAL, publishing to concurrent readers via the MANIFEST.
func (db *DB) Flush() error {
	if db.readOnly {
		return ErrReadOnly
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for db.imm != nil {
		db.flushCond.Wait()
	}
	if db.closed {
		return errors.New("lsm: store is closed")
	}
	return db.flushSyncLocked()
}

// Drain flushes the memtable and then waits for all background
// maintenance — in-flight flushes and any compactions they trigger — to
// go idle. Benchmarks and tests quiesce the engine with it so measured
// loops are not sharing the CPU with leftover write-path work.
func (db *DB) Drain() error {
	if err := db.Flush(); err != nil {
		return err
	}
	db.maintWG.Wait()
	return nil
}

// flushSyncLocked flushes a non-empty memtable inline and retires both WAL
// generations; success clears a sticky background-flush error (the failed
// snapshot was folded back into the memtable, so this write covers it).
// Caller holds mu (write) and has ensured imm is nil.
func (db *DB) flushSyncLocked() error {
	if db.mem.len() == 0 {
		return nil
	}
	id := db.manifest.NextSeg
	path := filepath.Join(db.dir, segName(id))
	info, err := writeSegment(path, db.mem.sorted())
	if err != nil {
		return err
	}
	seg, err := openSegment(path)
	if err != nil {
		return err
	}
	seg.bc = db.bcache
	db.manifest.NextSeg++
	db.manifest.Segments = append(db.manifest.Segments, manifestSegment{
		ID: id, Keys: info.keys, Bytes: info.bytes,
	})
	if err := db.manifest.commit(db.dir); err != nil {
		seg.close()
		return err
	}
	db.segs = append(db.segs, seg)
	db.mem = newMemtable()
	db.c.flushes.Add(1)
	if err := db.wal.reset(); err != nil {
		return err
	}
	os.Remove(db.wal.path + walOldSuffix)
	db.flushErr = nil
	if !db.opts.NoCompact && db.compactable() != nil {
		db.maintWG.Add(1)
		go func() {
			defer db.maintWG.Done()
			db.Compact() // serialized internally; errors surface in Stats via segment counts
		}()
	}
	return nil
}

// Len returns the number of distinct keys stored (exact: maintained
// incrementally by the writer and persisted in the MANIFEST).
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.manifest.Keys
}

// Dir returns the directory the engine is rooted at.
func (db *DB) Dir() string { return db.dir }

// ReadOnly reports whether this handle was opened without the writer lock.
func (db *DB) ReadOnly() bool { return db.readOnly }

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
	if db.imm != nil {
		for k, v := range db.imm.m {
			seen[k] = v
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
	memBytes, memKeys := int64(db.mem.bytes), int64(db.mem.len())
	if db.imm != nil {
		memBytes += int64(db.imm.bytes)
		memKeys += int64(db.imm.len())
	}
	gets, hits := db.c.gets.Load(), db.c.hits.Load()
	st := Stats{
		Gets:                gets,
		Hits:                hits,
		Misses:              gets - hits,
		Puts:                db.c.puts.Load(),
		MemtableHits:        db.c.memHits.Load(),
		MemtableBytes:       memBytes,
		MemtableKeys:        memKeys,
		BloomChecks:         db.c.bloomChecks.Load(),
		BloomRejects:        db.c.bloomRejects.Load(),
		BloomFalsePositives: db.c.bloomFP.Load(),
		SegmentReads:        db.c.segReads.Load(),
		Segments:            len(db.segs),
		BlockCacheHits:      db.bcache.hitCount(),
		BlockCacheMiss:      db.bcache.missCount(),
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
	if db.readOnly {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			return nil
		}
		db.closed = true
		for _, s := range db.segs {
			s.close()
		}
		return nil
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	for db.imm != nil {
		db.flushCond.Wait()
	}
	err := db.flushSyncLocked()
	db.closed = true
	db.mu.Unlock()
	db.maintWG.Wait()
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, s := range db.segs {
		s.close()
	}
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
