// Package store persists design-space-exploration measurements in a
// content-addressed result store. A simulation request hashes to a stable
// key — since schema v3 the key is the SHA-256 of the canonical
// musa.Experiment encoding, computed by the caller — and completed
// measurements land in an embedded LSM engine (internal/store/lsm): a
// WAL-backed memtable flushing to bloom-filtered sorted segments, so a
// killed sweep resumes from its checkpoint and repeated sweeps become
// cache hits. An LRU front keeps hot decoded entries in memory — and, once
// a single-measurement request has asked for it, each entry's POST /simulate
// reply form beside the decoded one; misses fall to the engine. The store is
// multi-process by design: one writer owns a directory (advisory flock),
// while any number of read-only opens follow the writer's published
// segments.
package store

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"musa/internal/dse"
	"musa/internal/store/lsm"
)

// SchemaVersion identifies the stored measurement encoding and the key
// derivation. It is bumped whenever dse.Measurement or the request key
// fields change shape — v2 added the cluster-level replay fields, v3 moved
// key derivation onto the canonical musa.Experiment encoding (and added the
// per-measurement IPC field), so v2 keys no longer address v3 results.
// Open refuses a store written under a different version instead of
// silently misreading it (an old log would unmarshal with zeroed fields, or
// simply never hit, and quietly poison resumed sweeps). The engine swap
// under v3 did not bump it: keys and measurement bytes are unchanged, only
// their container moved.
const SchemaVersion = 3

// schemaName is the version marker's file name inside the store directory.
const schemaName = "schema"

// ErrStoreBusy reports a second writer open of a live store directory.
// Readers are never refused: open with Options.ReadOnly to share a
// directory another process is writing.
var ErrStoreBusy = errors.New("store busy: already open for writing by another process")

// Bind wires st into a sweep's options: unless recompute is set, o.Lookup
// serves stored measurements, and o.OnMeasurement checkpoints each freshly
// simulated one. keyOf maps each sweep point onto its content address — the
// canonical-experiment key shared with single-measurement requests, so a
// sweep's checkpoints are hits for later single-point requests and vice
// versa. The returned function reports the first checkpoint write error and
// must be called after dse.Run returns.
func Bind(st *Store, keyOf func(app string, p dse.ArchPoint) string, o *dse.Options, recompute bool) func() error {
	if !recompute {
		o.Lookup = func(app string, p dse.ArchPoint) (dse.Measurement, bool) {
			return st.Get(keyOf(app, p))
		}
	}
	var mu sync.Mutex
	var firstErr error
	o.OnMeasurement = func(m dse.Measurement) {
		if err := st.Put(keyOf(m.App, m.Arch), m); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	}
	return func() error {
		mu.Lock()
		defer mu.Unlock()
		return firstErr
	}
}

// Options tunes a Store.
type Options struct {
	// LRUEntries bounds the in-memory front (0 = 4096).
	LRUEntries int
	// ReadOnly opens the store without taking the writer lock: the handle
	// follows segments another process publishes and never touches disk.
	// Put still populates the LRU front, so a read-only serve replica keeps
	// its own computed results hot in memory.
	ReadOnly bool
	// OnCompaction, if set, observes each compaction's duration in seconds
	// (the metrics bridge).
	OnCompaction func(seconds float64)
}

// Store is a content-addressed measurement store: an LSM engine under an
// in-memory LRU front of decoded measurements. All methods are safe for
// concurrent use; engine reads from different goroutines proceed in
// parallel (mu guards only the LRU).
type Store struct {
	db       *lsm.DB
	readOnly bool

	mu  sync.Mutex
	lru *lruCache
}

// Open creates dir if needed and returns the store. One process owns a
// directory for writing
// at a time: Open takes an advisory flock and fails fast with ErrStoreBusy
// if another writer holds it (the kernel releases the lock when the holder
// exits, however it dies, so a killed sweep never wedges the store).
// Opens with Options.ReadOnly never take the lock and never fail busy.
func Open(dir string, opts Options) (*Store, error) {
	if opts.ReadOnly {
		return openReadOnly(dir, opts)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := checkSchema(dir, false); err != nil {
		return nil, err
	}
	db, err := lsm.Open(dir, lsm.Options{OnCompaction: opts.OnCompaction})
	if err != nil {
		if errors.Is(err, lsm.ErrBusy) {
			return nil, fmt.Errorf("store: %s: %w", dir, ErrStoreBusy)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{db: db, lru: newLRU(lruMax(opts))}
	s.warmLRU()
	return s, nil
}

func lruMax(opts Options) int {
	if opts.LRUEntries > 0 {
		return opts.LRUEntries
	}
	return 4096
}

// openReadOnly opens a reader handle: no lock, no writes.
func openReadOnly(dir string, opts Options) (*Store, error) {
	if err := checkSchema(dir, true); err != nil {
		return nil, err
	}
	db, err := lsm.Open(dir, lsm.Options{ReadOnly: true})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{db: db, readOnly: true, lru: newLRU(lruMax(opts))}, nil
}

// checkSchema enforces the on-disk format: a directory still holding the
// pre-engine measurement log is refused, a store directory with existing
// results must carry a matching version marker, and an empty directory is
// stamped with the current version — by writers only; a read-only open of
// a virgin directory leaves it untouched.
func checkSchema(dir string, readOnly bool) error {
	// Serving the engine beside an unread log would silently drop every
	// measurement the log holds; a log a past release already folded in was
	// renamed by it and is not looked at.
	if fi, err := os.Stat(filepath.Join(dir, "results.jsonl")); err == nil && fi.Size() > 0 {
		return fmt.Errorf("store: %s holds a pre-engine results.jsonl log, which this release no longer migrates; "+
			"open the directory once with commit 889f72e (PR 13, the last release that does), or delete it to rebuild", dir)
	}
	marker := filepath.Join(dir, schemaName)
	raw, err := os.ReadFile(marker)
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return fmt.Errorf("store: %w", err)
	default:
		v, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr != nil {
			return fmt.Errorf("store: unreadable schema marker %s: %q", marker, raw)
		}
		if v != SchemaVersion {
			return fmt.Errorf("store: %s holds schema v%d results, current is v%d; delete the directory to rebuild it",
				dir, v, SchemaVersion)
		}
		return nil
	}
	if readOnly {
		return nil
	}
	if err := os.WriteFile(marker, []byte(strconv.Itoa(SchemaVersion)+"\n"), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// errWarmFull stops the open-time LRU warm once the front is full.
var errWarmFull = errors.New("store: lru warm full")

// warmLRU preloads the front from the engine, matching the old store's
// open-time warm so a resumed sweep starts hot.
func (s *Store) warmLRU() {
	n := 0
	_ = s.db.Scan(func(k string, v []byte) error {
		if n >= s.lru.max {
			return errWarmFull
		}
		var m dse.Measurement
		if json.Unmarshal(v, &m) == nil {
			s.lru.add(k, m)
			n++
		}
		return nil
	})
}

// Get returns the measurement stored under key. Engine read errors are
// reported as misses; the caller recomputes and overwrites.
func (s *Store) Get(key string) (dse.Measurement, bool) {
	e, _ := s.entry(key)
	if e == nil {
		return dse.Measurement{}, false
	}
	return e.m, true
}

// GetReply is Get plus the measurement in its reply form (see ReplyForm).
// The front keeps those bytes beside the decoded entry: the first GetReply of
// a resident measurement encodes them, later ones copy a slice header. The
// bytes are shared — callers must not modify them — and nil only for a
// measurement encoding/json refuses.
func (s *Store) GetReply(key string) (dse.Measurement, []byte, bool) {
	e, reply := s.entry(key)
	if e == nil {
		return dse.Measurement{}, nil, false
	}
	if reply != nil {
		return e.m, reply, true
	}
	// Encode outside the lock: two first requests may both get here and
	// produce the same bytes, and the front keeps the first copy offered.
	built, err := ReplyForm(e.m)
	if err != nil {
		return e.m, nil, true
	}
	s.mu.Lock()
	reply = s.lru.setReply(e, built)
	s.mu.Unlock()
	return e.m, reply, true
}

// ReplyForm encodes m as POST /simulate nests it in a reply: the last member
// of a two-space-indented object, so indented two spaces under a two-space
// prefix.
func ReplyForm(m dse.Measurement) ([]byte, error) {
	return json.MarshalIndent(m, "  ", "  ")
}

// entry returns the front's entry for key and its reply form, if built,
// reading the measurement in from the engine on a front miss.
func (s *Store) entry(key string) (*lruEntry, []byte) {
	s.mu.Lock()
	if e := s.lru.get(key); e != nil {
		reply := e.reply
		s.mu.Unlock()
		return e, reply
	}
	s.mu.Unlock()
	raw, ok := s.db.Get(key)
	if !ok {
		return nil, nil
	}
	var m dse.Measurement
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, nil
	}
	s.mu.Lock()
	e := s.lru.add(key, m)
	s.mu.Unlock()
	return e, nil
}

// Put stores the measurement under key. Each Put is one write to the
// engine's WAL, so a completed measurement survives a kill immediately
// after. On a read-only handle Put only keeps it in the in-memory front (see
// Keep) — the result stays served hot locally while the owning writer
// remains the sole mutator of the directory.
func (s *Store) Put(key string, m dse.Measurement) error {
	if !s.readOnly {
		raw, err := json.Marshal(m)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := s.db.Put(key, raw); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	s.Keep(key, m)
	return nil
}

// Keep makes m the front's resident measurement under key and writes
// nothing to the engine: the measurement is served from memory until the
// front evicts it, and never survives a reopen. This is how a handle holds
// what it did not compute and does not own — a read-only handle's own
// results, a ring replica's relayed replies.
func (s *Store) Keep(key string, m dse.Measurement) {
	s.mu.Lock()
	s.lru.add(key, m)
	s.mu.Unlock()
}

// Len returns the number of distinct keys stored.
func (s *Store) Len() int { return s.db.Len() }

// Flush forces buffered writes into a published segment so read-only
// handles in other processes can see them; the engine also flushes on its
// own as the WAL fills.
func (s *Store) Flush() error {
	if s.readOnly {
		return nil
	}
	return s.db.Flush()
}

// ReadOnly reports whether this handle was opened read-only.
func (s *Store) ReadOnly() bool { return s.readOnly }

// EngineStats returns a snapshot of the LSM engine's counters.
func (s *Store) EngineStats() lsm.Stats {
	return s.db.Stats()
}

// Close releases the engine (flushing buffered writes on a writer handle)
// and, for writers, the directory lock.
func (s *Store) Close() error {
	return s.db.Close()
}

// FrontStats counts the reply forms the front has built and the bytes of
// them it currently holds.
type FrontStats struct {
	ReplyBuilds int64 `json:"replyBuilds"`
	ReplyBytes  int64 `json:"replyBytes"`
}

// FrontStats returns a snapshot of the front's reply-form counters.
func (s *Store) FrontStats() FrontStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.stats
}

// lruCache is a minimal LRU of measurements keyed by content address.
type lruCache struct {
	max   int
	ll    *list.List
	items map[string]*list.Element
	stats FrontStats
}

// lruEntry is one resident measurement. key and m never change once the
// entry is in the cache — an overwriting add replaces the entry — so m may be
// read without the store lock; reply is guarded by it.
type lruEntry struct {
	key   string
	m     dse.Measurement
	reply []byte // m's ReplyForm once a GetReply built it
}

func newLRU(max int) *lruCache {
	return &lruCache{max: max, ll: list.New(), items: map[string]*list.Element{}}
}

func (c *lruCache) get(key string) *lruEntry {
	el, ok := c.items[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry)
}

// add makes m the resident measurement of key. A measurement it overwrites
// takes its reply form with it.
func (c *lruCache) add(key string, m dse.Measurement) *lruEntry {
	e := &lruEntry{key: key, m: m}
	if el, ok := c.items[key]; ok {
		c.stats.ReplyBytes -= int64(len(el.Value.(*lruEntry).reply))
		el.Value = e
		c.ll.MoveToFront(el)
		return e
	}
	c.items[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		last := c.ll.Remove(c.ll.Back()).(*lruEntry)
		c.stats.ReplyBytes -= int64(len(last.reply))
		delete(c.items, last.key)
	}
	return e
}

// setReply keeps built as e's reply form and returns the form to serve: the
// one a concurrent first request kept, if it was faster. An entry that was
// evicted or overwritten meanwhile keeps nothing.
func (c *lruCache) setReply(e *lruEntry, built []byte) []byte {
	if e.reply != nil {
		return e.reply
	}
	if el, ok := c.items[e.key]; ok && el.Value.(*lruEntry) == e {
		e.reply = built
		c.stats.ReplyBuilds++
		c.stats.ReplyBytes += int64(len(built))
	}
	return built
}

// lruLen reports the resident entry count (used by eviction tests).
func (c *lruCache) len() int { return c.ll.Len() }
