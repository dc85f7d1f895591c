package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func tkey(i int) string { return fmt.Sprintf("key-%06d", i) }

func tval(i int) []byte {
	return []byte(fmt.Sprintf(`{"measurement":%d,"payload":"%s"}`, i, strings.Repeat("x", 64)))
}

// smallOpts keeps the memtable tiny so tests exercise flush and segment
// paths without bulk data.
func smallOpts() Options {
	return Options{MemtableBytes: 4 << 10}
}

func fill(t testing.TB, db *DB, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := db.Put(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTripAcrossFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, db, 0, 500)
	// Overwrite a few: last write must win across memtable and segments.
	for _, i := range []int{0, 100, 499} {
		if err := db.Put(tkey(i), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Len(); got != 500 {
		t.Fatalf("Len = %d, want 500", got)
	}
	check := func(db *DB) {
		t.Helper()
		for i := 0; i < 500; i++ {
			want := tval(i)
			if i == 0 || i == 100 || i == 499 {
				want = []byte("v2")
			}
			v, ok := db.Get(tkey(i))
			if !ok || !bytes.Equal(v, want) {
				t.Fatalf("key %d: ok=%v val=%q want %q", i, ok, v, want)
			}
		}
		if _, ok := db.Get("absent"); ok {
			t.Fatal("phantom hit")
		}
	}
	check(db)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Flushes == 0 {
		t.Fatal("memtable never flushed under the small bound")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Len(); got != 500 {
		t.Fatalf("Len after reopen = %d, want 500", got)
	}
	check(db2)
}

func TestWALReplayAfterKill(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{MemtableBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, db, 0, 50)
	// Simulate a kill: do not Close (no flush); reopen must replay the WAL.
	db.wal.f.Sync()
	db.lock.Close() // release the flock as process exit would

	db2, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st := db2.Stats(); st.WALReplayed != 50 {
		t.Fatalf("replayed %d records, want 50", st.WALReplayed)
	}
	if db2.Len() != 50 {
		t.Fatalf("Len = %d, want 50", db2.Len())
	}
	for i := 0; i < 50; i++ {
		if v, ok := db2.Get(tkey(i)); !ok || !bytes.Equal(v, tval(i)) {
			t.Fatalf("key %d lost after WAL replay", i)
		}
	}
}

func TestTornWALTailIsTolerated(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{MemtableBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, db, 0, 20)
	db.lock.Close()

	// Tear the final record: chop bytes off the WAL tail.
	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatalf("open refused a store with a torn WAL tail: %v", err)
	}
	defer db2.Close()
	st := db2.Stats()
	if !st.WALTornTail {
		t.Fatal("torn tail not reported")
	}
	if st.WALReplayed != 19 {
		t.Fatalf("replayed %d records, want the 19 intact ones", st.WALReplayed)
	}
	for i := 0; i < 19; i++ {
		if _, ok := db2.Get(tkey(i)); !ok {
			t.Fatalf("intact record %d lost", i)
		}
	}
	// The torn record is gone; the store keeps accepting writes.
	if _, ok := db2.Get(tkey(19)); ok {
		t.Fatal("torn record served")
	}
	if err := db2.Put(tkey(19), tval(19)); err != nil {
		t.Fatal(err)
	}
	if v, ok := db2.Get(tkey(19)); !ok || !bytes.Equal(v, tval(19)) {
		t.Fatal("rewrite after torn tail failed")
	}
}

// TestGarbageWALRecordEndsReplayAtIntactPrefix corrupts a middle record:
// replay must keep everything before it and drop the rest (the suffix
// cannot be trusted once framing is lost).
func TestGarbageWALRecordEndsReplayAtIntactPrefix(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{MemtableBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, db, 0, 10)
	db.lock.Close()

	walPath := filepath.Join(dir, "wal.log")
	raw, _ := os.ReadFile(walPath)
	raw[len(raw)/2] ^= 0xff // flip a bit mid-log
	os.WriteFile(walPath, raw, 0o644)

	db2, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatalf("open refused a store with a corrupt WAL record: %v", err)
	}
	defer db2.Close()
	st := db2.Stats()
	if !st.WALTornTail || st.WALReplayed == 0 || st.WALReplayed >= 10 {
		t.Fatalf("replay kept %d records (torn=%v), want an intact non-empty prefix", st.WALReplayed, st.WALTornTail)
	}
}

func TestSecondWriterGetsErrBusy(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, smallOpts()); !errors.Is(err, ErrBusy) {
		t.Fatalf("second writer error = %v, want ErrBusy", err)
	}
	// Readers are never refused.
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("reader refused while writer live: %v", err)
	}
	ro.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	db2.Close()
}

// TestWriterAndReaderShareDirectory is the multi-process contract: a
// read-only handle (no lock, separate instance) tracks a live writer's
// published segments via the MANIFEST.
func TestWriterAndReaderShareDirectory(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fill(t, w, 0, 10)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, ok := r.Get(tkey(3)); !ok || !bytes.Equal(v, tval(3)) {
		t.Fatal("reader misses flushed data")
	}
	if err := r.Put("x", []byte("y")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Put error = %v, want ErrReadOnly", err)
	}

	// The writer publishes more; the reader's next miss refreshes its view.
	fill(t, w, 10, 20)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Get(tkey(15)); !ok || !bytes.Equal(v, tval(15)) {
		t.Fatal("reader did not refresh to the writer's new segment")
	}
	if st := r.Stats(); st.Refreshes == 0 {
		t.Fatal("refresh not counted")
	}
	if r.Len() != 20 {
		t.Fatalf("reader Len = %d, want 20", r.Len())
	}

	// Unflushed memtable data is invisible to readers — by contract.
	if err := w.Put("memonly", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("memonly"); ok {
		t.Fatal("reader sees the writer's memtable")
	}
}

// TestBloomRejectsMissWithoutSegmentReads is the serve-scale miss path:
// lookups of never-computed keys must not read data blocks except on bloom
// false positives, and those must be rare.
func TestBloomRejectsMissWithoutSegmentReads(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fill(t, db, 0, 2000)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.MemtableKeys != 0 || st.Segments == 0 {
		t.Fatalf("expected all data in segments, got %+v", st)
	}

	const misses = 1000
	before := db.Stats()
	for i := 0; i < misses; i++ {
		if _, ok := db.Get(fmt.Sprintf("never-computed-%06d", i)); ok {
			t.Fatal("phantom hit")
		}
	}
	after := db.Stats()
	fp := after.BloomFalsePositives - before.BloomFalsePositives
	reads := after.SegmentReads - before.SegmentReads
	if reads > fp {
		t.Fatalf("miss path read %d blocks but only %d bloom false positives", reads, fp)
	}
	// ~1% per segment probe; with a handful of segments allow generous slack.
	if maxFP := int64(misses) * int64(after.Segments) / 20; fp > maxFP {
		t.Fatalf("false positive count %d exceeds %d (~5%% of %d probes across %d segments)",
			fp, maxFP, misses, after.Segments)
	}
	if after.BloomRejects == before.BloomRejects {
		t.Fatal("bloom filters never rejected")
	}
}

func TestCompactionFoldsSegmentsAndKeepsData(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{MemtableBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Several flushes with overlapping key ranges and overwrites; the flush
	// that fills a tier merges it.
	for round := 0; round < 6; round++ {
		for i := 0; i < 120; i++ {
			if err := db.Put(tkey(i), []byte(fmt.Sprintf("round-%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	after := db.Stats()
	if after.Flushes < compactAt {
		t.Fatalf("only %d segments written", after.Flushes)
	}
	if int64(after.Segments) >= after.Flushes {
		t.Fatalf("compaction did not reduce segments: %d written -> %d live", after.Flushes, after.Segments)
	}
	if after.Compactions == 0 || after.CompactionSecs <= 0 {
		t.Fatalf("compaction counters not updated: %+v", after)
	}
	if db.Len() != 120 {
		t.Fatalf("Len = %d, want 120", db.Len())
	}
	for i := 0; i < 120; i++ {
		want := fmt.Sprintf("round-5-%d", i)
		if v, ok := db.Get(tkey(i)); !ok || string(v) != want {
			t.Fatalf("key %d after compaction: ok=%v val=%q want %q", i, ok, v, want)
		}
	}
	// Old segment files are deleted.
	ents, _ := os.ReadDir(dir)
	var segFiles int
	for _, e := range ents {
		if isSegName(e.Name()) {
			segFiles++
		}
	}
	if segFiles != after.Segments {
		t.Fatalf("%d segment files on disk, manifest lists %d", segFiles, after.Segments)
	}
}

// TestKilledCompactionLeavesConsistentManifest plants the debris a
// compaction killed before its manifest commit would leave — a fully
// written merged segment and a half-written temp — and proves open serves
// the pre-compaction state and sweeps the orphans.
func TestKilledCompactionLeavesConsistentManifest(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{MemtableBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, db, 0, 200)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Orphan 1: a merged segment that never made it into the MANIFEST.
	orphan := filepath.Join(dir, segName(9999))
	if _, err := writeSegment(orphan, []kv{{k: "zzz", v: []byte("stale")}}); err != nil {
		t.Fatal(err)
	}
	// Orphan 2: a temp file killed mid-write.
	if err := os.WriteFile(filepath.Join(dir, segName(9998)+".tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatalf("open refused after killed compaction: %v", err)
	}
	defer db2.Close()
	if db2.Len() != 200 {
		t.Fatalf("Len = %d, want 200", db2.Len())
	}
	for i := 0; i < 200; i++ {
		if _, ok := db2.Get(tkey(i)); !ok {
			t.Fatalf("key %d lost", i)
		}
	}
	if _, ok := db2.Get("zzz"); ok {
		t.Fatal("orphan segment's data served")
	}
	for _, name := range []string{segName(9999), segName(9998) + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("orphan %s not swept", name)
		}
	}
}

func TestScanVisitsLiveVersionsInKeyOrder(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fill(t, db, 0, 300)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(tkey(7), []byte("new")); err != nil {
		t.Fatal(err)
	}
	var keys []string
	err = db.Scan(func(k string, v []byte) error {
		keys = append(keys, k)
		if k == tkey(7) && string(v) != "new" {
			t.Fatalf("scan served stale version of %s", k)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 300 {
		t.Fatalf("scan visited %d keys, want 300", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("scan not in key order")
		}
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{MemtableBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fill(t, db, 0, 500)
	done := make(chan error, 4)
	for g := 0; g < 3; g++ {
		go func(g int) {
			for i := 0; i < 2000; i++ {
				k := tkey((i * (g + 1)) % 500)
				if _, ok := db.Get(k); !ok {
					done <- fmt.Errorf("reader %d: key %s missing", g, k)
					return
				}
				db.Get(fmt.Sprintf("miss-%d-%d", g, i))
			}
			done <- nil
		}(g)
	}
	go func() {
		for i := 500; i < 1500; i++ {
			if err := db.Put(tkey(i), tval(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 1500 {
		t.Fatalf("Len = %d, want 1500", db.Len())
	}
}

// TestFailedFlushPublishesNothing plants a directory where a flush must
// write — the MANIFEST temp file, or the next segment — so every flush
// fails until the plant goes. The failed flushes must publish nothing:
// every put stays served, the manifest lists exactly the open segments,
// the retry succeeds, and a reopen serves everything with no segment
// listed twice.
func TestFailedFlushPublishesNothing(t *testing.T) {
	for _, plant := range []string{"manifest-temp", "next-segment"} {
		t.Run(plant, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			fill(t, db, 0, 100)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			name := manifestName + ".tmp"
			if plant == "next-segment" {
				name = segName(db.manifest.NextSeg)
			}
			// Non-empty, so the engine's own cleanup cannot remove it.
			planted := filepath.Join(dir, name)
			if err := os.MkdirAll(filepath.Join(planted, "keep"), 0o755); err != nil {
				t.Fatal(err)
			}
			var putErr error
			for i := 100; i < 200; i++ {
				if err := db.Put(tkey(i), tval(i)); err != nil && putErr == nil {
					putErr = err
				}
			}
			if putErr == nil {
				t.Fatal("no put reported its failed flush")
			}
			if err := db.Flush(); err == nil {
				t.Fatal("flush succeeded through the plant")
			}
			check := func(db *DB) {
				t.Helper()
				for i := 0; i < 200; i++ {
					if v, ok := db.Get(tkey(i)); !ok || !bytes.Equal(v, tval(i)) {
						t.Fatalf("key %d not served", i)
					}
				}
				if db.Len() != 200 {
					t.Fatalf("Len = %d, want 200", db.Len())
				}
				if len(db.manifest.Segments) != len(db.segs) {
					t.Fatalf("manifest lists %d segments, %d open", len(db.manifest.Segments), len(db.segs))
				}
				ids := map[int64]bool{}
				for _, ms := range db.manifest.Segments {
					if ids[ms.ID] {
						t.Fatalf("segment %d listed twice", ms.ID)
					}
					ids[ms.ID] = true
				}
			}
			check(db)

			if err := os.RemoveAll(planted); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatalf("retry after the plant went: %v", err)
			}
			check(db)
			if st := db.Stats(); st.MemtableKeys != 0 {
				t.Fatalf("retry left %d keys in the memtable", st.MemtableKeys)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(dir, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			check(db2)
		})
	}
}

// TestOverwritesKeepWALBounded re-puts the same ten keys, as a sweep that
// recomputes does: the memtable never grows past its first round, so only
// a flush triggered by the WAL's own size keeps the log (and the replay
// at the next open) bounded.
func TestOverwritesKeepWALBounded(t *testing.T) {
	dir := t.TempDir()
	const bound = 4 << 10
	db, err := Open(dir, Options{MemtableBytes: bound})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	walPath := filepath.Join(dir, "wal.log")
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			if err := db.Put(tkey(i), tval(round)); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() >= 2*bound {
				t.Fatalf("round %d: wal.log is %d bytes, bound %d", round, fi.Size(), bound)
			}
		}
	}
	if db.Stats().Flushes == 0 {
		t.Fatal("overwrites never flushed")
	}
	if db.Len() != 10 {
		t.Fatalf("Len = %d, want 10", db.Len())
	}
	for i := 0; i < 10; i++ {
		if v, ok := db.Get(tkey(i)); !ok || !bytes.Equal(v, tval(49)) {
			t.Fatalf("key %d: last write lost", i)
		}
	}
}

// writeWALFile writes records framed as the WAL frames them.
func writeWALFile(t *testing.T, path string, recs []kv) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := &wal{f: f}
	for _, r := range recs {
		if _, err := w.append(r.k, r.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

// TestLeftoverOldWALIsFoldedAtOpen: releases that flushed in the
// background left a killed flush's acknowledged puts in wal.log.old. Open
// replays it over the segments and under the live log, folds both into a
// segment and removes it, and a second open has nothing left to replay.
func TestLeftoverOldWALIsFoldedAtOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Put(tkey(i), []byte(fmt.Sprintf("seg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 5; i++ {
		want[tkey(i)] = fmt.Sprintf("seg-%d", i)
	}
	var old, live []kv
	for i := 5; i < 15; i++ {
		old = append(old, kv{k: tkey(i), v: []byte(fmt.Sprintf("old-%d", i))})
		want[tkey(i)] = fmt.Sprintf("old-%d", i)
	}
	for i := 10; i < 13; i++ {
		live = append(live, kv{k: tkey(i), v: []byte(fmt.Sprintf("live-%d", i))})
		want[tkey(i)] = fmt.Sprintf("live-%d", i)
	}
	walPath := filepath.Join(dir, "wal.log")
	writeWALFile(t, walPath+".old", old)
	writeWALFile(t, walPath, live)

	check := func(db *DB) {
		t.Helper()
		for k, v := range want {
			if got, ok := db.Get(k); !ok || string(got) != v {
				t.Fatalf("%s = %q (ok=%v), want %q", k, got, ok, v)
			}
		}
		if db.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", db.Len(), len(want))
		}
	}
	db, err = Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.WALReplayed != int64(len(old)+len(live)) || st.WALTornTail {
		t.Fatalf("replayed %d records (torn %v), want %d", st.WALReplayed, st.WALTornTail, len(old)+len(live))
	}
	if st.Flushes != 1 || st.MemtableKeys != 0 {
		t.Fatalf("open folded %d flushes, %d keys left in the memtable; want 1 and 0", st.Flushes, st.MemtableKeys)
	}
	if _, err := os.Stat(walPath + ".old"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("wal.log.old not removed: %v", err)
	}
	check(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if st := db.Stats(); st.WALReplayed != 0 {
		t.Fatalf("second open replayed %d records", st.WALReplayed)
	}
	check(db)
}

// TestEngineStartsNoGoroutine: flushes and compactions run on the writer's
// own call, so no goroutine outlives a Put, and none is left after Close.
func TestEngineStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	db, err := Open(t.TempDir(), Options{MemtableBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := db.Put(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("after put %d: %d goroutines, %d before Open", i, n, before)
		}
	}
	if st := db.Stats(); st.Flushes < compactAt || st.Compactions == 0 {
		t.Fatalf("workload ran %d flushes and %d compactions; want both exercised", st.Flushes, st.Compactions)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("after Close: %d goroutines, %d before Open", n, before)
	}
}
