package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"musa/internal/cache"
	"musa/internal/dram"
	"musa/internal/dse"
	"musa/internal/jsonenc"
	"musa/internal/node"
	"musa/internal/store/lsm"
	"musa/internal/trace"
)

// This file is the artifact namespace of the store: a content-addressed
// cache of the sweep runner's expensive intermediates (cache hit-rate
// tables, DRAM latency models, burst traces), sitting alongside the
// measurement log. Keys are the canonical artifact addresses of internal/dse
// (HitRateKey, LatencyModelKey, BurstKey); blobs are self-describing
// JSON envelopes.
//
// The directory is the only way an artifact leaves the process that built
// it. Unlike the measurement store, it is not flock'd to one process:
// blobs are multi-MB and multi-writer (local CLIs, serve replicas and demo
// workers on one host may share one directory), so they live in the
// engine's value-separated blob heap (lsm.Blobs) — whole files published by
// atomic rename, a reader sees a complete artifact or none — rather than in
// the single-writer LSM tree.

// artifactSchemaName is the version marker's file name inside the artifact
// directory (the marker value is dse.ArtifactSchemaVersion).
const artifactSchemaName = "schema"

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
	// BytesRead / BytesWritten count encoded blob traffic through the
	// directory, not decoded sizes; a memory-only cache encodes nothing.
	BytesRead    int64 `json:"bytesRead"`
	BytesWritten int64 `json:"bytesWritten"`
	// Entries is the number of distinct artifacts in the directory, or for
	// a memory-only cache the decoded values resident in its fronts.
	Entries int `json:"entries"`
}

// artifactEnvelope is the wire form of one artifact blob: a schema marker,
// the content address the blob was built for, the kind, and the
// kind-specific payload. Key is embedded because an artifact key hashes
// build *inputs*, not the blob — without it, a structurally valid blob
// stored under the wrong key (a buggy writer, a renamed file) would be
// served as a different artifact and silently poison measurements.
// Every typed read checks it.
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

// encode wraps v in the envelope of the artifact addressed by key. It writes
// the envelope's fields and then the payload into one buffer, the bytes
// json.Marshal renders for an artifactEnvelope whose Data is v's encoding,
// without copying the payload a second time.
func (c *codec[T]) encode(key string, v T) []byte {
	blob := make([]byte, 0, 64+len(key))
	blob = strconv.AppendInt(append(blob, `{"schema":`...), int64(dse.ArtifactSchemaVersion), 10)
	blob = jsonenc.AppendString(append(blob, `,"key":`...), key)
	blob = jsonenc.AppendString(append(blob, `,"kind":`...), string(c.kind))
	buf := bytes.NewBuffer(append(blob, `,"data":`...))
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// All payloads are trees of plain exported fields.
		panic(fmt.Sprintf("store: marshal %s artifact: %v", c.kind, err))
	}
	blob = buf.Bytes()
	blob[len(blob)-1] = '}' // over the newline Encode ends a value with
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

// ArtifactCache is the process-wide artifact cache and the one typed face
// of the artifact path: per kind, a bounded front of decoded values over a
// directory heap. Opened without a directory it is the fronts alone, and
// encodes nothing. All methods are safe for concurrent use. It implements
// dse.ArtifactProvider.
type ArtifactCache struct {
	dir *lsm.Blobs // nil: memory only

	mu       sync.Mutex
	hit      front[node.HitRateTable]
	lat      front[dram.LatencyModel]
	burst    front[*trace.Burst]
	firstErr error

	read, written atomic.Int64 // encoded bytes out of / into dir
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
		return c, nil
	}
	heap, err := lsm.OpenBlobs(dir, ".json")
	if err != nil {
		return nil, fmt.Errorf("store: artifacts: %w", err)
	}
	if err := checkArtifactSchema(dir); err != nil {
		return nil, err
	}
	c.dir = heap
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

// validArtifactKey reports whether key is a well-formed artifact content
// address (hex SHA-256), and so safe to turn into a file name.
func validArtifactKey(key string) bool {
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

// Len returns the number of distinct artifacts in the directory, or the
// decoded values resident in a memory-only cache.
func (c *ArtifactCache) Len() int {
	if c.dir == nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.hit.vals) + len(c.lat.vals) + len(c.burst.vals)
	}
	n, err := c.dir.Count()
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
	if c.dir == nil {
		return nil, false
	}
	blob, err := c.dir.Get(key)
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
	if err := c.dir.Put(key, blob); err != nil {
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
	if rerr := c.dir.Remove(key); rerr != nil {
		c.noteErr(fmt.Errorf("store: artifacts: %w", rerr))
	}
}

// Blob returns the encoded artifact under key, byte-for-byte as the
// directory holds it; a memory-only cache holds none.
func (c *ArtifactCache) Blob(key string) ([]byte, bool) {
	if !validArtifactKey(key) {
		return nil, false
	}
	return c.fetch(key)
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
		// by a concurrent lookup or put.
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

// put is the one write: v goes into the front, and its encoding into the
// directory when there is one.
func put[T any](c *ArtifactCache, f *front[T], key string, v T) {
	if c.dir != nil {
		c.persist(key, f.encode(key, v))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f.insert(key, v)
	f.stats.Puts++
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
