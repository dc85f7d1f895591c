package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"musa/internal/apps"
	"musa/internal/cache"
	"musa/internal/dram"
	"musa/internal/dse"
	"musa/internal/node"
	"musa/internal/trace"
)

// testHitRates builds a small but structurally real hit-rate table,
// together with the fused trace it was derived from (for reconstruction
// checks).
func testHitRates(t *testing.T) (*node.FusedTrace, node.HitRateTable) {
	t.Helper()
	app := apps.LULESH()
	p := dse.Enumerate()[0]
	cfg := p.NodeConfig(2000, 4000, 1)
	ft := node.BuildFusedTrace(app, cfg.VectorBits, cfg.SampleInstrs, cfg.WarmupInstrs, cfg.Seed)
	_, hrt := node.AnnotateTrace(ft, cfg)
	return ft, hrt
}

// encodeHitRates encodes a hit-rate table through its codec row.
func encodeHitRates(key string, t node.HitRateTable) []byte { return hitRatesCodec.encode(key, t) }

// TestHitRatesRoundTrip is the contract the warm-equals-cold guarantee
// rests on, on a structurally real table: it survives the round trip
// through its envelope exactly, and overlaying the decoded table on the
// fused trace reconstructs the same annotation a direct cache walk
// produces. (Refusals and wire bytes: TestArtifactCodecTable.)
func TestHitRatesRoundTrip(t *testing.T) {
	ft, hrt := testHitRates(t)
	key := fmt.Sprintf("%064x", 99)
	c, err := OpenArtifacts("")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutBlob(key, encodeHitRates(key, hrt)); err != nil {
		t.Fatal(err)
	}
	got, ok := c.HitRates(key)
	if !ok || !reflect.DeepEqual(hrt, got) {
		t.Fatal("hit-rate table round trip is lossy")
	}
	direct, _ := node.AnnotateTrace(ft, dse.Enumerate()[0].NodeConfig(2000, 4000, 1))
	combined, ok := node.CombineAnnotation(ft, got)
	if !ok {
		t.Fatal("decoded table does not combine with its trace")
	}
	if !reflect.DeepEqual(direct, combined) {
		t.Fatal("decoded table does not reconstruct the annotation bit-for-bit")
	}
}

// codecRow is one row of the codec table with its value type erased, so
// one test body can drive all three kinds.
type codecRow struct {
	kind dse.ArtifactKind
	// sha pins the SHA-256 of the fixture's encoded envelope: the wire
	// bytes cannot change without a dse.ArtifactSchemaVersion bump (and new
	// pins).
	sha    string
	value  any
	encode func(key string, v any) []byte
	put    func(c *ArtifactCache, key string)
	get    func(c *ArtifactCache, key string) (any, bool)
	// bad are payloads the codec must refuse, by what is wrong with them.
	bad map[string]any
}

func newCodecRow[T any](c *codec[T], sha string, v T, bad map[string]any,
	put func(*ArtifactCache, string, T), get func(*ArtifactCache, string) (T, bool)) codecRow {
	return codecRow{
		kind: c.kind, sha: sha, value: v, bad: bad,
		encode: func(key string, v any) []byte { return c.encode(key, v.(T)) },
		put:    func(ac *ArtifactCache, key string) { put(ac, key, v) },
		get:    func(ac *ArtifactCache, key string) (any, bool) { return get(ac, key) },
	}
}

func codecRows() []codecRow {
	hrt := node.HitRateTable{
		Levels:   []uint8{0, 1, 2, 3, 4, 1, 0, 4},
		L1:       cache.Stats{Accesses: 6, Misses: 4, Evictions: 2, Writebacks: 1},
		L2:       cache.Stats{Accesses: 4, Misses: 3},
		L3:       cache.Stats{Accesses: 3, Misses: 2},
		MemReads: 2, MemWrites: 1,
		HierCfg: cache.HierarchyConfig{MemLatencyCycle: 200, PrefetchDegree: 4},
	}
	badLevel := hrt
	badLevel.Levels = []uint8{0, uint8(cache.LevelMem) + 1}
	lm := dram.LatencyModel{PeakBW: 1e9, Points: []float64{0.05, 1}, LatenciesNs: []float64{80.5, 120.25}, SatBW: 9e8}
	lmWith := func(edit func(*dram.LatencyModel)) dram.LatencyModel {
		m := lm
		m.Points, m.LatenciesNs = slices.Clone(lm.Points), slices.Clone(lm.LatenciesNs)
		edit(&m)
		return m
	}
	burst := &trace.Burst{App: "fixture", Ranks: []trace.RankTrace{
		{Rank: 0, Events: []trace.Event{{Kind: trace.EvSend, Peer: 1, Bytes: 8}, {Kind: trace.EvBarrier}}},
		{Rank: 1, Events: []trace.Event{{Kind: trace.EvRecv, Peer: 0, Bytes: 8}, {Kind: trace.EvBarrier}}},
	}}
	return []codecRow{
		newCodecRow(&hitRatesCodec, "2da949c48c91c7d749096f0fd9bc2094191b659574bfb54e8804d6146513e595", hrt,
			map[string]any{"out-of-range level": badLevel, "undecodable": "x"},
			(*ArtifactCache).PutHitRates, (*ArtifactCache).HitRates),
		newCodecRow(&latencyCodec, "1eaf9ead0f0f31c56161e8ed7adf0a7c404662c2447681ff526e3c28e82d2ded", lm,
			map[string]any{
				// The first LatencyNs of this one indexed an empty column.
				"mismatched columns": dram.LatencyModel{PeakBW: 1e9, Points: []float64{0.5, 0.7}, LatenciesNs: []float64{}},
				"no points":          dram.LatencyModel{PeakBW: 1e9, SatBW: 9e8},
				"points not increasing": lmWith(func(m *dram.LatencyModel) {
					m.Points[1] = m.Points[0]
				}),
				"zero peak":        lmWith(func(m *dram.LatencyModel) { m.PeakBW = 0 }),
				"negative latency": lmWith(func(m *dram.LatencyModel) { m.LatenciesNs[0] = -1 }),
				"undecodable":      "x",
			},
			(*ArtifactCache).PutLatencyModel, (*ArtifactCache).LatencyModel),
		newCodecRow(&burstCodec, "93c8fb78919275c9cfe921112fd5358765ecc1e1827359229017068636699ec2", burst,
			map[string]any{
				"invalid burst (no ranks)":       trace.Burst{App: "fixture"},
				"invalid burst (rank misplaced)": trace.Burst{Ranks: []trace.RankTrace{{Rank: 1}}},
				"null":                           nil,
				"undecodable":                    "x",
			},
			(*ArtifactCache).PutBurst, (*ArtifactCache).Burst),
	}
}

// TestArtifactCodecTable drives every row of the codec table through the
// same checks: the encoded envelope is pinned, a round trip through a
// directory and a second handle is bitwise, and every byte boundary — the
// PutBlob push path and the typed read of a stored file — refuses a blob
// with the wrong key, schema or kind or with a payload the row's codec
// rejects.
func TestArtifactCodecTable(t *testing.T) {
	rows := codecRows()
	key := strings.Repeat("ab", 32)
	other := strings.Repeat("cd", 32)
	// envelope re-marshals blob with some fields replaced.
	envelope := func(blob []byte, repl map[string]any) []byte {
		var env map[string]any
		if err := json.Unmarshal(blob, &env); err != nil {
			t.Fatal(err)
		}
		for k, v := range repl {
			env[k] = v
		}
		out, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for i, row := range rows {
		t.Run(string(row.kind), func(t *testing.T) {
			blob := row.encode(key, row.value)
			if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != row.sha {
				t.Fatalf("encoded envelope changed: sha256 %s, pinned %s\n%s", got, row.sha, blob)
			}

			// Round trip: written typed through one handle, read typed and
			// raw through another, re-encoded to the same bytes.
			dir := t.TempDir()
			w, err := OpenArtifacts(dir)
			if err != nil {
				t.Fatal(err)
			}
			row.put(w, key)
			r, err := OpenArtifacts(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := row.get(r, key)
			if !ok || !reflect.DeepEqual(got, row.value) {
				t.Fatalf("round trip is lossy: %+v, want %+v", got, row.value)
			}
			if raw, ok := r.Blob(key); !ok || !bytes.Equal(raw, blob) || !bytes.Equal(row.encode(key, got), blob) {
				t.Fatal("round trip is not bitwise")
			}
			// A blob of this kind is never served as another kind.
			for j, o := range rows {
				if _, ok := o.get(r, key); ok != (i == j) {
					t.Fatalf("%s blob served as %s: %v", row.kind, o.kind, ok)
				}
			}

			refused := map[string][]byte{
				"wrong schema": envelope(blob, map[string]any{"schema": dse.ArtifactSchemaVersion + 1}),
				"wrong key":    envelope(blob, map[string]any{"key": other}),
				"unknown kind": envelope(blob, map[string]any{"kind": "nonsense"}),
			}
			for name, payload := range row.bad {
				refused[name] = envelope(blob, map[string]any{"data": payload})
			}
			for name, bad := range refused {
				mem, err := OpenArtifacts("")
				if err != nil {
					t.Fatal(err)
				}
				if err := mem.PutBlob(key, bad); err == nil {
					t.Errorf("%s: pushed blob accepted", name)
				}
				if name == "unknown kind" {
					continue // a typed read treats another kind as absent, not corrupt
				}
				// The same bytes as a file another writer left behind.
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, key+".json"), bad, 0o644); err != nil {
					t.Fatal(err)
				}
				disk, err := OpenArtifacts(dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := row.get(disk, key); ok || disk.Err() == nil || disk.Len() != 0 {
					t.Errorf("%s: stored blob served=%v err=%v entries=%d, want refused, reported and evicted",
						name, ok, disk.Err(), disk.Len())
				}
			}
		})
	}
}

// TestArtifactSharedDirectory pins the multi-process contract of the disk
// backend: two handles opened on one directory see each other's later
// writes, typed and raw, because a lookup asks the directory, not an index
// filled at open.
func TestArtifactSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, hrt := testHitRates(t)
	key := fmt.Sprintf("%064x", 5)
	if _, ok := a.HitRates(key); ok {
		t.Fatal("empty directory served a table")
	}
	b.PutHitRates(key, hrt)
	if got, ok := a.HitRates(key); !ok || !reflect.DeepEqual(got, hrt) {
		t.Fatal("table put through one handle not served typed by the other")
	}
	raw, ok := a.Blob(key)
	if want, _ := b.Blob(key); !ok || !bytes.Equal(raw, want) {
		t.Fatal("table put through one handle not served raw by the other")
	}
	if n := a.Stats().Entries; n != 1 {
		t.Fatalf("entries seen by the other handle = %d, want 1", n)
	}
}

// TestArtifactCachePersistence drives the disk path: artifacts written by
// one cache are served — typed and raw — by a fresh cache over the same
// directory, and the stats count the traffic.
func TestArtifactCachePersistence(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, hrt := testHitRates(t)
	lm := dram.LatencyModel{PeakBW: 1e9, Points: []float64{0.05, 1}, LatenciesNs: []float64{80.5, 120.25}, SatBW: 9e8}
	b := apps.BurstTrace(apps.LULESH(), 4, 1)
	c1.PutHitRates("a"+strings.Repeat("0", 63), hrt)
	c1.PutLatencyModel("b"+strings.Repeat("0", 63), lm)
	c1.PutBurst("c"+strings.Repeat("0", 63), b)
	if c1.Err() != nil {
		t.Fatal(c1.Err())
	}
	if got := c1.Stats(); got.Entries != 3 || got.BytesWritten == 0 {
		t.Fatalf("stats after puts: %+v", got)
	}

	c2, err := OpenArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	gh, ok := c2.HitRates("a" + strings.Repeat("0", 63))
	if !ok || !reflect.DeepEqual(gh, hrt) {
		t.Fatal("hit-rate table not served byte-identically from disk")
	}
	gl, ok := c2.LatencyModel("b" + strings.Repeat("0", 63))
	if !ok || !reflect.DeepEqual(gl, lm) {
		t.Fatal("latency model not served from disk")
	}
	gb, ok := c2.Burst("c" + strings.Repeat("0", 63))
	if !ok || !reflect.DeepEqual(gb, b) {
		t.Fatal("burst not served from disk")
	}
	st := c2.Stats()
	if st.HitRates.Hits != 1 || st.LatencyModels.Hits != 1 || st.Bursts.Hits != 1 {
		t.Fatalf("hit counters: %+v", st)
	}
	if st.BytesRead == 0 {
		t.Fatal("no bytes counted on the read path")
	}
	if _, ok := c2.HitRates("f" + strings.Repeat("0", 63)); ok {
		t.Fatal("absent key served")
	}
	if c2.Stats().HitRates.Misses != 1 {
		t.Fatal("miss not counted")
	}

	// Raw blobs travel byte-identically (the HTTP payload contract).
	blob, ok := c2.Blob("a" + strings.Repeat("0", 63))
	if !ok {
		t.Fatal("no raw blob")
	}
	disk, err := os.ReadFile(filepath.Join(dir, "a"+strings.Repeat("0", 63)+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, disk) {
		t.Fatal("Blob differs from the stored file")
	}
}

// TestArtifactCacheSchemaRefused pins the invalidation behavior: a
// directory stamped with another artifact schema version is refused.
func TestArtifactCacheSchemaRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, artifactSchemaName), []byte("999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenArtifacts(dir); err == nil {
		t.Fatal("stale artifact schema accepted")
	}
}

// TestArtifactPutBlobValidates drives the HTTP-facing boundary: bad keys,
// bad envelopes, stale schemas and undecodable payloads are refused; a
// valid pushed blob is immediately served typed (no rebuild) and raw
// (byte-identical).
func TestArtifactPutBlobValidates(t *testing.T) {
	c, err := OpenArtifacts("") // memory-only, like a worker without a dir
	if err != nil {
		t.Fatal(err)
	}
	key := "d" + strings.Repeat("1", 63)
	if err := c.PutBlob("not-a-key", []byte("{}")); err == nil {
		t.Fatal("bad key accepted")
	}
	if err := c.PutBlob(key, []byte("not json")); err == nil {
		t.Fatal("bad envelope accepted")
	}
	stale, _ := json.Marshal(map[string]any{"schema": 999, "kind": "hit-rates", "data": map[string]any{}})
	if err := c.PutBlob(key, stale); err == nil {
		t.Fatal("stale schema accepted")
	}
	wrong, _ := json.Marshal(map[string]any{"schema": dse.ArtifactSchemaVersion, "kind": "hit-rates", "data": "x"})
	if err := c.PutBlob(key, wrong); err == nil {
		t.Fatal("undecodable payload accepted")
	}

	_, hrt := testHitRates(t)
	blob := encodeHitRates(key, hrt)
	if err := c.PutBlob(key, blob); err != nil {
		t.Fatal(err)
	}
	// The same valid blob under a different key is refused: the envelope
	// binds the payload to the address it was built for, so a mis-keyed
	// push cannot poison later sweeps.
	if err := c.PutBlob("e"+strings.Repeat("2", 63), blob); err == nil {
		t.Fatal("blob accepted under a key it was not built for")
	}
	got, ok := c.HitRates(key)
	if !ok || !reflect.DeepEqual(got, hrt) {
		t.Fatal("pushed hit-rate table not served")
	}
	raw, ok := c.Blob(key)
	if !ok || !bytes.Equal(raw, blob) {
		t.Fatal("pushed blob not served byte-identically")
	}
}

// TestArtifactCorruptBlobEvicted pins the corrupt-blob behavior: a stored
// blob whose payload no longer decodes is evicted on first lookup and
// surfaced through Err(), instead of being re-read and re-failed forever
// in silence. A later Put simply rewrites the key.
func TestArtifactCorruptBlobEvicted(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("%064x", 7)
	_, hrt := testHitRates(t)
	c.PutHitRates(key, hrt)
	// Corrupt the payload on disk while keeping a valid envelope.
	blob, _ := json.Marshal(map[string]any{
		"schema": dse.ArtifactSchemaVersion, "key": key, "kind": "hit-rates",
		"data": map[string]any{"levels": "x x x"},
	})
	if err := os.WriteFile(filepath.Join(dir, key+".json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.HitRates(key); ok {
		t.Fatal("corrupt hit-rate table served")
	}
	if c2.Err() == nil {
		t.Fatal("corrupt blob not reported through Err")
	}
	if c2.Len() != 0 {
		t.Fatalf("corrupt key still indexed: %d entries", c2.Len())
	}
	// Rewriting the key recovers.
	c2.PutHitRates(key, hrt)
	if got, ok := c2.HitRates(key); !ok || !reflect.DeepEqual(got, hrt) {
		t.Fatal("rewritten key not served")
	}
}

// TestArtifactFrontEviction keeps the decoded hit-rate front bounded: old
// entries are evicted from memory but stay reachable on disk.
func TestArtifactFrontEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, hrt := testHitRates(t)
	keys := make([]string, hitRatesCodec.bound+4)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i+1)
		c.PutHitRates(keys[i], hrt)
	}
	c.mu.Lock()
	resident := len(c.hit.vals)
	c.mu.Unlock()
	if resident > c.hit.bound {
		t.Fatalf("%d resident hit-rate tables, cap %d", resident, c.hit.bound)
	}
	// The evicted first key still decodes from disk.
	if got, ok := c.HitRates(keys[0]); !ok || !reflect.DeepEqual(got, hrt) {
		t.Fatal("evicted hit-rate table lost from disk")
	}

	// cache.Stats/HierarchyConfig zero-value sanity: envelope kinds refuse
	// cross-kind typed reads.
	if _, ok := c.LatencyModel(keys[0]); ok {
		t.Fatal("hit-rate blob served as a latency model")
	}
	_ = cache.Stats{}
}

// TestUnbalancedBurstRefusedAndRebuilt is the corrupt-artifact repro: a
// stored burst trace with one receive removed passes every per-event check,
// and replaying it would deadlock — a panic in a sweep worker, which nothing
// recovers. The codec refuses it on the disk read and on the push path, the
// sweep rebuilds the trace, and the measurement equals a run without the
// cache.
func TestUnbalancedBurstRefusedAndRebuilt(t *testing.T) {
	const ranks, seed = 4, 1
	app := apps.Hydro()
	corrupt := apps.BurstTrace(app, ranks, seed)
	dropped := false
	for i, ev := range corrupt.Ranks[1].Events {
		if ev.Kind == trace.EvSendRecv {
			// Keep the send half, drop the receive half.
			corrupt.Ranks[1].Events[i] = trace.Event{Kind: trace.EvSend, Peer: ev.Peer, Bytes: ev.Bytes}
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("the trace has no exchange to corrupt")
	}
	key := dse.BurstKey(dse.AppHash(app), ranks, seed)
	blob := burstCodec.encode(key, corrupt)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, key+".json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutBlob(key, blob); err == nil {
		t.Fatal("a pushed unbalanced burst was accepted")
	}

	run := func(provider dse.ArtifactProvider) dse.Measurement {
		t.Helper()
		d := dse.Run(context.Background(), dse.Options{
			Apps: []*apps.Profile{app}, Points: dse.Enumerate()[:1],
			SampleInstrs: 2000, WarmupInstrs: 4000, Seed: seed, Workers: 1,
			Replay:    dse.ReplayConfig{Ranks: []int{ranks}},
			Artifacts: provider,
		})
		if len(d.Measurements) != 1 {
			t.Fatalf("%d measurements, want 1", len(d.Measurements))
		}
		return d.Measurements[0]
	}
	got := run(c)
	if c.Err() == nil {
		t.Error("the unbalanced burst was not reported through Err")
	}
	if want := run(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("measurement over the corrupt cache differs from an uncached run:\n%+v\n%+v", got, want)
	}
	rebuilt, ok := c.Burst(key)
	if !ok || !bytes.Equal(burstCodec.encode(key, rebuilt), burstCodec.encode(key, apps.BurstTrace(app, ranks, seed))) {
		t.Error("the rebuilt trace was not stored in place of the corrupt one")
	}
}
