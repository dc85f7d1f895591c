package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"musa/internal/cpu"
	"musa/internal/dse"
	"musa/internal/power"
)

func testPoint(freq float64) dse.ArchPoint {
	return dse.ArchPoint{
		Cores: 32, Core: cpu.Medium(), FreqGHz: freq, VectorBits: 256,
		Cache: dse.CacheConfigs()[1], Channels: 4, Mem: dse.DDR4,
	}
}

func testMeasurement(app string, freq, t float64) dse.Measurement {
	return dse.Measurement{
		App: app, Arch: testPoint(freq), TimeNs: t, IPC: 1.1,
		Power: power.Breakdown{CoreL1: 10, L2L3: 5, Memory: 3}, EnergyJ: t * 18e-9,
		L1MPKI: 1.5, L2MPKI: 0.7, L3MPKI: 0.2, GMemReqPerSec: 1e9,
		Cluster: []dse.ClusterStat{
			{Ranks: 64, EndToEndNs: t * 1.2, MPIFraction: 0.1, ParallelEff: 0.8},
			{Ranks: 256, EndToEndNs: t * 1.5, MPIFraction: 0.25, ParallelEff: 0.6},
		},
		EndToEndNs: t * 1.5, MPIFraction: 0.25, ParallelEff: 0.6,
	}
}

// testKey stands in for the canonical-experiment keys the musa package
// computes; the store itself only sees opaque content addresses.
func testKey(app string, freq float64) string {
	return fmt.Sprintf("key-%s-%.1f", app, freq)
}

func TestOpenRefusesMismatchedSchema(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testKey("hydro", 2.0), testMeasurement("hydro", 2.0, 7)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// A store stamped with an older schema version must be refused with an
	// error that names both versions: v2 keys were derived from the old
	// store.Request encoding and no longer address v3 results.
	for _, old := range []string{"1\n", "2\n"} {
		if err := os.WriteFile(filepath.Join(dir, schemaName), []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, Options{})
		if err == nil {
			t.Fatalf("Open accepted a store written under schema %q", old)
		}
		want := fmt.Sprintf("schema v%s", old[:1])
		if got := err.Error(); !strings.Contains(got, want) || !strings.Contains(got, fmt.Sprintf("v%d", SchemaVersion)) {
			t.Fatalf("refusal error %q does not name both versions", got)
		}
	}

	// Restoring the current version makes it readable again.
	if err := os.WriteFile(filepath.Join(dir, schemaName),
		[]byte(fmt.Sprintf("%d\n", SchemaVersion)), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()
}

func TestOpenRefusesPreVersioningLog(t *testing.T) {
	// A results log without any schema marker predates versioning: its
	// measurements would unmarshal with zeroed cluster fields and be served
	// as hits, so Open must refuse it outright.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "results.jsonl"),
		[]byte(`{"k":"abc","m":{"App":"hydro","TimeNs":1}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a pre-versioning results log")
	}
}

func TestRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m1 := testMeasurement("lulesh", 2.0, 100)
	m2 := testMeasurement("hydro", 2.5, 200)
	k1 := testKey(m1.App, 2.0)
	k2 := testKey(m2.App, 2.5)
	if err := st.Put(k1, m1); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(k2, m2); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(k1)
	if !ok || !reflect.DeepEqual(got, m1) {
		t.Fatalf("round trip mismatch: ok=%v got=%+v", ok, got)
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("after reopen Len = %d, want 2", st2.Len())
	}
	got, ok = st2.Get(k2)
	if !ok || !reflect.DeepEqual(got, m2) {
		t.Fatalf("reopen round trip mismatch: ok=%v got=%+v", ok, got)
	}
	if _, ok := st2.Get("missing"); ok {
		t.Fatal("Get of unknown key reported a hit")
	}
}

func TestLRUEvictionFallsBackToDisk(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{LRUEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	freqs := []float64{1.5, 2.0, 2.5, 3.0}
	keys := make([]string, len(freqs))
	for i, f := range freqs {
		m := testMeasurement("spmz", f, 100*float64(i+1))
		keys[i] = testKey(m.App, f)
		if err := st.Put(keys[i], m); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.lru.len(); n != 2 {
		t.Fatalf("LRU holds %d entries, want 2", n)
	}
	// keys[0] was evicted from the LRU; the hit must come from disk.
	got, ok := st.Get(keys[0])
	if !ok {
		t.Fatal("evicted entry lost: disk fallback failed")
	}
	if want := testMeasurement("spmz", freqs[0], 100); !reflect.DeepEqual(got, want) {
		t.Fatalf("disk fallback returned wrong measurement: %+v", got)
	}
}

// TestKeepIsFrontOnly holds Keep to the front: on a writer handle the kept
// measurement is served from memory, but the engine never sees it — no
// key, no WAL byte — so it is gone after a reopen, and after an eviction.
func TestKeepIsFrontOnly(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{LRUEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := testMeasurement("btmz", 2.5, 42)
	key := testKey(m.App, 2.5)
	before := st.EngineStats()
	st.Keep(key, m)
	if got, ok := st.Get(key); !ok || !reflect.DeepEqual(got, m) {
		t.Fatalf("Get after Keep = %+v, %v; want the kept measurement", got, ok)
	}
	if after := st.EngineStats(); st.Len() != 0 || after.Puts != before.Puts || after.WALBytes != before.WALBytes {
		t.Fatalf("Keep reached the engine: len %d, puts %d -> %d, WAL bytes %d -> %d",
			st.Len(), before.Puts, after.Puts, before.WALBytes, after.WALBytes)
	}
	for _, f := range []float64{1.5, 3.0} {
		st.Keep(testKey(m.App, f), testMeasurement(m.App, f, 1))
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("an evicted kept measurement was still served")
	}
	st.Keep(key, m)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok := st.Get(key); ok {
		t.Fatal("a kept measurement survived a reopen")
	}
}

func TestSupersededRecordsLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("btmz", 2.0)
	for i := 0; i < 3; i++ {
		if err := st.Put(k, testMeasurement("btmz", 2.0, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	other := testKey("btmz", 3.0)
	if err := st.Put(other, testMeasurement("btmz", 3.0, 9)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (superseded records must not count)", st2.Len())
	}
	got, ok := st2.Get(k)
	if !ok || got.TimeNs != 2 {
		t.Fatalf("last write must win: ok=%v TimeNs=%v", ok, got.TimeNs)
	}
}

func TestOpenIsExclusivePerProcessForWriters(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrStoreBusy) {
		t.Fatalf("second writer Open error = %v, want ErrStoreBusy", err)
	}
	// Readers are never refused — that is the multi-process contract.
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only Open refused while writer live: %v", err)
	}
	if !ro.ReadOnly() {
		t.Fatal("ReadOnly() = false on a read-only handle")
	}
	ro.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after Close failed: %v", err)
	}
	st2.Close()
}

// TestWriterAndReaderShareDirectory exercises the store-level multi-process
// contract: a second, read-only handle on the same directory — what a warm
// `musa serve` replica holds while a sweep writes — serves measurements the
// writer publishes, without a lock.
func TestWriterAndReaderShareDirectory(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	m := testMeasurement("lulesh", 2.0, 11)
	k := testKey(m.App, 2.0)
	if err := w.Put(k, m); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, ok := r.Get(k); !ok || !reflect.DeepEqual(got, m) {
		t.Fatalf("reader misses the writer's flushed measurement: ok=%v", ok)
	}

	// The writer publishes more after the reader opened.
	m2 := testMeasurement("hydro", 2.5, 22)
	k2 := testKey(m2.App, 2.5)
	if err := w.Put(k2, m2); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.Get(k2); !ok || !reflect.DeepEqual(got, m2) {
		t.Fatalf("reader did not follow the writer's new segment: ok=%v", ok)
	}
	if r.Len() != 2 {
		t.Fatalf("reader Len = %d, want 2", r.Len())
	}

	// A read-only Put keeps the result hot locally but never touches disk.
	m3 := testMeasurement("spmz", 3.0, 33)
	k3 := testKey(m3.App, 3.0)
	if err := r.Put(k3, m3); err != nil {
		t.Fatalf("read-only Put must be a memory-front put, got %v", err)
	}
	if got, ok := r.Get(k3); !ok || !reflect.DeepEqual(got, m3) {
		t.Fatal("read-only Put did not populate the front")
	}
	if _, ok := w.Get(k3); ok {
		t.Fatal("read-only Put leaked into the shared directory")
	}
}

// legacyLine encodes one record the way the pre-engine JSONL store did.
func legacyLine(t *testing.T, k string, m dse.Measurement) []byte {
	t.Helper()
	raw, err := json.Marshal(struct {
		K string          `json:"k"`
		M dse.Measurement `json:"m"`
	}{k, m})
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// TestOpenRefusesLegacyLog pins what is left of the JSONL era: a directory
// whose measurements still sit in a results.jsonl log is refused, by
// writers and readers alike, with an error that says which release still
// migrates it — and the log is left exactly as it was. The renamed log a
// past migration left behind is inert: the engine alone serves the store.
func TestOpenRefusesLegacyLog(t *testing.T) {
	line := legacyLine(t, testKey("hydro", 2.0), testMeasurement("hydro", 2.0, 7))
	for _, readOnly := range []bool{false, true} {
		t.Run(fmt.Sprintf("readOnly=%v", readOnly), func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			k := testKey("btmz", 2.0)
			if err := st.Put(k, testMeasurement("btmz", 2.0, 1)); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			log := filepath.Join(dir, "results.jsonl")
			if err := os.WriteFile(log, line, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Open(dir, Options{ReadOnly: readOnly})
			if err == nil {
				t.Fatalf("Open accepted a directory holding a legacy log")
			}
			for _, want := range []string{"results.jsonl", "889f72e"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("refusal %q does not name %s", err, want)
				}
			}
			if got, err := os.ReadFile(log); err != nil || string(got) != string(line) {
				t.Fatalf("refused open touched the log: %v", err)
			}

			if err := os.Rename(log, log+".migrated"); err != nil {
				t.Fatal(err)
			}
			st, err = Open(dir, Options{ReadOnly: readOnly})
			if err != nil {
				t.Fatalf("a migrated leftover blocks the open: %v", err)
			}
			if _, ok := st.Get(k); !ok || st.Len() != 1 {
				t.Fatalf("store beside a migrated leftover serves %d keys", st.Len())
			}
			st.Close()
		})
	}
}
