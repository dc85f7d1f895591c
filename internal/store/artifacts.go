package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"musa/internal/cache"
	"musa/internal/dram"
	"musa/internal/dse"
	"musa/internal/node"
	"musa/internal/store/lsm"
	"musa/internal/trace"
)

// This file is the artifact namespace of the store: a content-addressed
// cache of the sweep runner's expensive intermediates (cache hit-rate
// tables, DRAM latency models, burst traces), sitting alongside the
// measurement log. Keys are the canonical artifact addresses of internal/dse
// (HitRateKey, LatencyModelKey, BurstKey); blobs are self-describing
// JSON envelopes, so they can travel over HTTP (`musa serve`'s
// GET/PUT /artifact/{key}) byte-for-byte.
//
// Unlike the measurement store, the artifact directory is not flock'd to
// one process: blobs are multi-MB and multi-writer (the coordinator, local
// CLIs and demo workers share one directory), so they live in the engine's
// value-separated blob heap (lsm.Blobs) — whole files published by atomic
// rename, a reader sees a complete artifact or none — rather than in the
// single-writer LSM tree.

// artifactSchemaName is the version marker's file name inside the artifact
// directory (the marker value is dse.ArtifactSchemaVersion).
const artifactSchemaName = "schema"

// Bounds of the memory-only blob map: by count, and by size so a long-lived
// client cannot pin hundreds of MB of encoded blobs.
const (
	maxResidentRawBlobs = 256
	maxResidentRawBytes = 256 << 20
)

// localBlobs is where encoded artifacts live, this process's own storage:
// opaque bytes by key, so it knows no codec (ArtifactCache is the only type
// that decodes). Besides serving bytes it can drop a corrupt blob and count
// what it holds (for a directory by listing it — when statistics are asked
// for, never on a lookup). The on-disk implementation is *lsm.Blobs, one
// "<key>.json" file per artifact. Implementations must be safe for
// concurrent use.
type localBlobs interface {
	// Get returns the blob under key; a miss is an error matching
	// fs.ErrNotExist, anything else is a fault worth reporting.
	Get(key string) ([]byte, error)
	Put(key string, blob []byte) error
	Remove(key string) error
	Count() (int, error)
}

// memBlobs is the memory-only backend: encoded blobs are retained so a
// client without a directory can still serve them to fleet workers and over
// HTTP, FIFO bounded by count and bytes.
type memBlobs struct {
	mu    sync.Mutex
	blobs map[string][]byte
	order []string // the keys of blobs, oldest write first
	bytes int64
}

func (m *memBlobs) Get(key string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.blobs[key]; ok {
		return b, nil
	}
	return nil, fs.ErrNotExist
}

// Put may evict the just-written key if it alone busts the byte bound.
func (m *memBlobs) Put(key string, blob []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drop(key)
	m.blobs[key] = blob
	m.order = append(m.order, key)
	m.bytes += int64(len(blob))
	for len(m.order) > maxResidentRawBlobs || m.bytes > maxResidentRawBytes {
		m.drop(m.order[0])
	}
	return nil
}

// drop forgets key if it is held. Caller holds mu.
func (m *memBlobs) drop(key string) {
	if b, ok := m.blobs[key]; ok {
		m.bytes -= int64(len(b))
		delete(m.blobs, key)
		m.order = slices.DeleteFunc(m.order, func(k string) bool { return k == key })
	}
}

func (m *memBlobs) Remove(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drop(key)
	return nil
}

func (m *memBlobs) Count() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.blobs), nil
}

// ArtifactKindStats counts one artifact kind's traffic.
type ArtifactKindStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
}

// ArtifactStats is a snapshot of an ArtifactCache's counters.
type ArtifactStats struct {
	HitRates      ArtifactKindStats `json:"hitRates"`
	LatencyModels ArtifactKindStats `json:"latencyModels"`
	Bursts        ArtifactKindStats `json:"bursts"`
	// BytesRead / BytesWritten count encoded blob traffic through local
	// storage (disk or the in-memory map), not decoded sizes.
	BytesRead    int64 `json:"bytesRead"`
	BytesWritten int64 `json:"bytesWritten"`
	// Entries is the number of distinct artifacts held locally (on disk or
	// in the in-memory map).
	Entries int `json:"entries"`
}

// artifactEnvelope is the wire form of one artifact blob: a schema marker,
// the content address the blob was built for, the kind, and the
// kind-specific payload. Key is embedded because an artifact key hashes
// build *inputs*, not the blob — without it, a structurally valid blob
// stored under the wrong key (a buggy pusher, a renamed file) would be
// served as a different artifact and silently poison measurements.
// PutBlob and every typed read check it.
type artifactEnvelope struct {
	Schema int              `json:"schema"`
	Key    string           `json:"key"`
	Kind   dse.ArtifactKind `json:"kind"`
	Data   json.RawMessage  `json:"data"`
}

// codec is one row of the codec table: everything kind-specific about an
// artifact. The payload is the value's own JSON encoding — exact, so
// decode(encode(v)) is bitwise v, which the warm-equals-cold dataset
// guarantee rests on. bound caps the decoded values resident at once:
// hit-rate tables dominate memory (one byte per sample instruction, a few
// hundred KB each at default fidelity); the other kinds are small.
type codec[T any] struct {
	kind     dse.ArtifactKind
	bound    int
	validate func(T) error // nil: every well-formed payload is valid
}

// The codec table. Every artifact payload in the program is encoded and
// decoded through one of these three rows.
var (
	hitRatesCodec = codec[node.HitRateTable]{
		kind: dse.ArtifactHitRates, bound: 128,
		validate: func(t node.HitRateTable) error {
			for i, lvl := range t.Levels {
				if lvl > uint8(cache.LevelMem) {
					return fmt.Errorf("level %d at instr %d out of range", lvl, i)
				}
			}
			return nil
		},
	}
	latencyCodec = codec[dram.LatencyModel]{
		kind: dse.ArtifactLatencyModel, bound: 4096,
		validate: dram.LatencyModel.Validate,
	}
	burstCodec = codec[*trace.Burst]{
		kind: dse.ArtifactBurst, bound: 128,
		validate: func(b *trace.Burst) error {
			if b == nil { // a literal JSON null
				return errors.New("no trace")
			}
			return b.Validate()
		},
	}
)

// decode parses and validates an envelope payload of this kind.
func (c *codec[T]) decode(data []byte) (v T, err error) {
	if err = json.Unmarshal(data, &v); err == nil && c.validate != nil {
		err = c.validate(v)
	}
	if err != nil {
		err = fmt.Errorf("store: artifacts: %s payload: %w", c.kind, err)
	}
	return v, err
}

// encode wraps v in the envelope of the artifact addressed by key.
func (c *codec[T]) encode(key string, v T) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		// All payloads are trees of plain exported fields.
		panic(fmt.Sprintf("store: marshal %s artifact: %v", c.kind, err))
	}
	blob, err := json.Marshal(artifactEnvelope{
		Schema: dse.ArtifactSchemaVersion, Key: key, Kind: c.kind, Data: data,
	})
	if err != nil {
		panic(fmt.Sprintf("store: marshal %s envelope: %v", c.kind, err))
	}
	return blob
}

// decodeEnvelope parses and validates a blob claimed to hold the artifact
// addressed by key: schema version and key binding are both enforced.
func decodeEnvelope(key string, blob []byte) (artifactEnvelope, error) {
	var env artifactEnvelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return env, fmt.Errorf("store: artifacts: bad envelope: %w", err)
	}
	if env.Schema != dse.ArtifactSchemaVersion {
		return env, fmt.Errorf("store: artifacts: blob has schema v%d, current is v%d",
			env.Schema, dse.ArtifactSchemaVersion)
	}
	if env.Key != key {
		return env, fmt.Errorf("store: artifacts: blob was built for key %s, stored under %s", env.Key, key)
	}
	return env, nil
}

// front is the decoded in-memory front of one kind: its codec, a FIFO
// bounded map of decoded values, and the kind's counters. Eviction is FIFO
// — an artifact cache only ever changes how fast results arrive, never
// what they are. Fields are guarded by the owning ArtifactCache's mu.
type front[T any] struct {
	*codec[T]
	vals  map[string]T
	order []string
	stats ArtifactKindStats
}

func newFront[T any](c *codec[T]) front[T] {
	return front[T]{codec: c, vals: map[string]T{}}
}

func (f *front[T]) insert(key string, v T) {
	if _, ok := f.vals[key]; !ok {
		f.order = append(f.order, key)
		for len(f.order) > f.bound {
			delete(f.vals, f.order[0])
			f.order = f.order[1:]
		}
	}
	f.vals[key] = v
}

// admitter is a front with its value type erased: what PutBlob needs of
// the front that a blob's own kind names.
type admitter interface {
	admit(c *ArtifactCache, key string, payload, blob []byte) error
}

// admit stores a validated envelope of this front's kind that arrived as
// bytes: the payload is decoded before any lock is taken, and the decoded
// value is kept, so a pushed artifact is served without a second decode.
func (f *front[T]) admit(c *ArtifactCache, key string, payload, blob []byte) error {
	v, err := f.decode(payload)
	if err == nil {
		keep(c, f, key, blob, v)
	}
	return err
}

// ArtifactCache is the process-wide artifact cache and the one typed face
// of the artifact path: per kind, a bounded front of decoded values over
// local blob storage. The storage is a directory heap, or a bounded
// in-memory map when opened without a directory — raw blobs are retained
// either way so they can be served to fleet workers and over HTTP. All
// methods are safe for concurrent use. It implements dse.ArtifactProvider.
type ArtifactCache struct {
	local localBlobs

	kinds map[dse.ArtifactKind]admitter

	mu       sync.Mutex
	hit      front[node.HitRateTable]
	lat      front[dram.LatencyModel]
	burst    front[*trace.Burst]
	firstErr error

	read, written atomic.Int64 // encoded bytes out of / into local
}

var _ dse.ArtifactProvider = (*ArtifactCache)(nil)

// OpenArtifacts opens (creating if needed) the artifact cache rooted at
// dir; an empty dir yields a memory-only cache. A directory written under a
// different artifact schema version is refused — delete it to rebuild.
func OpenArtifacts(dir string) (*ArtifactCache, error) {
	c := &ArtifactCache{
		hit:   newFront(&hitRatesCodec),
		lat:   newFront(&latencyCodec),
		burst: newFront(&burstCodec),
	}
	if dir == "" {
		c.local = &memBlobs{blobs: map[string][]byte{}}
	} else {
		heap, err := lsm.OpenBlobs(dir, ".json")
		if err != nil {
			return nil, fmt.Errorf("store: artifacts: %w", err)
		}
		if err := checkArtifactSchema(dir); err != nil {
			return nil, err
		}
		c.local = heap
	}
	c.kinds = map[dse.ArtifactKind]admitter{c.hit.kind: &c.hit, c.lat.kind: &c.lat, c.burst.kind: &c.burst}
	return c, nil
}

// checkArtifactSchema stamps an empty directory with the current artifact
// schema version and refuses one stamped (or populated) under another.
func checkArtifactSchema(dir string) error {
	marker := filepath.Join(dir, artifactSchemaName)
	raw, err := os.ReadFile(marker)
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return fmt.Errorf("store: artifacts: %w", err)
	default:
		v, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr != nil {
			return fmt.Errorf("store: artifacts: unreadable schema marker %s: %q", marker, raw)
		}
		if v != dse.ArtifactSchemaVersion {
			return fmt.Errorf("store: artifacts: %s holds schema v%d artifacts, current is v%d; delete the directory to rebuild it",
				dir, v, dse.ArtifactSchemaVersion)
		}
		return nil
	}
	if err := os.WriteFile(marker, []byte(strconv.Itoa(dse.ArtifactSchemaVersion)+"\n"), 0o644); err != nil {
		return fmt.Errorf("store: artifacts: %w", err)
	}
	return nil
}

// ValidArtifactKey reports whether key is a well-formed artifact content
// address (hex SHA-256): the HTTP layer and PutBlob share this gate.
func ValidArtifactKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// Err returns the first blob write/read error the cache swallowed (the
// cache is best-effort: a failing disk degrades it to rebuild-every-time
// rather than failing sweeps).
func (c *ArtifactCache) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstErr
}

// Stats returns a snapshot of the cache counters. Entries is counted when
// asked — for a directory, by listing it.
func (c *ArtifactCache) Stats() ArtifactStats {
	n := c.Len()
	c.mu.Lock()
	defer c.mu.Unlock()
	return ArtifactStats{
		HitRates: c.hit.stats, LatencyModels: c.lat.stats, Bursts: c.burst.stats,
		BytesRead: c.read.Load(), BytesWritten: c.written.Load(), Entries: n,
	}
}

// Len returns the number of distinct artifacts held locally.
func (c *ArtifactCache) Len() int {
	n, err := c.local.Count()
	if err != nil {
		c.noteErr(fmt.Errorf("store: artifacts: %w", err))
	}
	return n
}

func (c *ArtifactCache) noteErr(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// fetch reads the blob under key, outside the lock — a multi-MB file read
// must not stall concurrent lookups from sweep workers.
func (c *ArtifactCache) fetch(key string) ([]byte, bool) {
	blob, err := c.local.Get(key)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.noteErr(fmt.Errorf("store: artifacts: %w", err))
		}
		return nil, false
	}
	c.read.Add(int64(len(blob)))
	return blob, true
}

// persist writes blob under key, outside the lock.
func (c *ArtifactCache) persist(key string, blob []byte) {
	if err := c.local.Put(key, blob); err != nil {
		c.noteErr(fmt.Errorf("store: artifacts: %w", err))
		return
	}
	c.written.Add(int64(len(blob)))
}

// evict removes a blob that failed validation and records the failure:
// without this, a corrupt file would be re-read and re-failed on every
// lookup forever, with Err staying silent. The next put under the key
// simply rewrites it.
func (c *ArtifactCache) evict(key string, err error) {
	c.noteErr(fmt.Errorf("store: artifacts: corrupt blob %s: %w", key, err))
	if rerr := c.local.Remove(key); rerr != nil {
		c.noteErr(fmt.Errorf("store: artifacts: %w", rerr))
	}
}

// Blob returns the encoded artifact under key, byte-for-byte as stored
// locally — the payload of GET /artifact/{key} and of coordinator-to-worker
// pushes.
func (c *ArtifactCache) Blob(key string) ([]byte, bool) {
	if !ValidArtifactKey(key) { // the directory backend turns keys into file names
		return nil, false
	}
	return c.fetch(key)
}

// PutBlob validates and stores an encoded artifact received from outside
// (PUT /artifact/{key}, a fleet coordinator's push): the blob must
// parse as a current-schema envelope bound to key with a payload its kind's
// codec accepts, so a corrupt or stale upload is refused at the boundary
// rather than poisoning later sweeps.
func (c *ArtifactCache) PutBlob(key string, blob []byte) error {
	if !ValidArtifactKey(key) {
		return fmt.Errorf("store: artifacts: bad key %q", key)
	}
	env, err := decodeEnvelope(key, blob)
	if err != nil {
		return err
	}
	f, ok := c.kinds[env.Kind]
	if !ok {
		return fmt.Errorf("store: artifacts: unknown kind %q", env.Kind)
	}
	return f.admit(c, key, env.Data, blob)
}

// get is the one typed read: the decoded front, else the stored blob
// decoded and validated through the kind's codec. A blob of another kind
// under the key is a miss; one that fails validation is evicted.
func get[T any](c *ArtifactCache, f *front[T], key string) (T, bool) {
	resident := func() (v T, ok bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if v, ok = f.vals[key]; ok {
			f.stats.Hits++
		}
		return v, ok
	}
	if v, ok := resident(); ok {
		return v, true
	}
	if blob, ok := c.fetch(key); ok {
		// The read ran outside the lock and the key may be decoded by now,
		// by a concurrent lookup or a PutBlob.
		if v, ok := resident(); ok {
			return v, true
		}
		// Decode outside the lock too: tables are hundreds of KB and
		// concurrent sweep workers must not serialize behind the decode.
		env, err := decodeEnvelope(key, blob)
		if err == nil && env.Kind == f.kind {
			var v T
			if v, err = f.decode(env.Data); err == nil {
				c.mu.Lock()
				f.insert(key, v)
				f.stats.Hits++
				c.mu.Unlock()
				return v, true
			}
		}
		if err != nil {
			c.evict(key, err)
		}
	}
	c.mu.Lock()
	f.stats.Misses++
	c.mu.Unlock()
	var zero T
	return zero, false
}

// keep is the one write: blob goes to local storage, its decoded value v
// into the front.
func keep[T any](c *ArtifactCache, f *front[T], key string, blob []byte, v T) {
	c.persist(key, blob)
	c.mu.Lock()
	defer c.mu.Unlock()
	f.insert(key, v)
	f.stats.Puts++
}

func put[T any](c *ArtifactCache, f *front[T], key string, v T) {
	keep(c, f, key, f.encode(key, v), v)
}

// The six methods of dse.ArtifactProvider.

func (c *ArtifactCache) HitRates(key string) (node.HitRateTable, bool) { return get(c, &c.hit, key) }
func (c *ArtifactCache) PutHitRates(key string, t node.HitRateTable)   { put(c, &c.hit, key, t) }
func (c *ArtifactCache) LatencyModel(key string) (dram.LatencyModel, bool) {
	return get(c, &c.lat, key)
}
func (c *ArtifactCache) PutLatencyModel(key string, m dram.LatencyModel) { put(c, &c.lat, key, m) }
func (c *ArtifactCache) Burst(key string) (*trace.Burst, bool)           { return get(c, &c.burst, key) }
func (c *ArtifactCache) PutBurst(key string, b *trace.Burst)             { put(c, &c.burst, key, b) }
