package store

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"musa/internal/dse"
)

// wantReply is the reference for a front reply form, independent of
// ReplyForm: the measurement as a two-space-indented encoder nests it one
// level deep.
func wantReply(t *testing.T, m dse.Measurement) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"measurement": m}); err != nil {
		t.Fatal(err)
	}
	// {\n  "measurement": <form>\n}\n
	return bytes.TrimSuffix(bytes.TrimPrefix(buf.Bytes(), []byte("{\n  \"measurement\": ")), []byte("\n}\n"))
}

func getReply(t *testing.T, st *Store, key string, want dse.Measurement) []byte {
	t.Helper()
	m, reply, ok := st.GetReply(key)
	if !ok || !reflect.DeepEqual(m, want) {
		t.Fatalf("GetReply(%s) = %+v, %v; want the stored measurement", key, m, ok)
	}
	if w := wantReply(t, want); !bytes.Equal(reply, w) {
		t.Fatalf("GetReply(%s) reply form:\n%s\nwant:\n%s", key, reply, w)
	}
	return reply
}

// TestFrontReplyLifecycle follows one key's reply form through the front:
// built by the first GetReply, shared by the next, reset by an overwriting
// Put, dropped on eviction — with the two counters agreeing at every step.
func TestFrontReplyLifecycle(t *testing.T) {
	st, err := Open(t.TempDir(), Options{LRUEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats := func(builds int64, resident ...[]byte) {
		t.Helper()
		var bytes int64
		for _, r := range resident {
			bytes += int64(len(r))
		}
		if got := st.FrontStats(); got.ReplyBuilds != builds || got.ReplyBytes != bytes {
			t.Fatalf("FrontStats = %+v, want %d builds and %d resident bytes", got, builds, bytes)
		}
	}
	if _, _, ok := st.GetReply("absent"); ok {
		t.Fatal("GetReply of an absent key hit")
	}

	k1, m1 := testKey("hydro", 1.5), testMeasurement("hydro", 1.5, 100)
	if err := st.Put(k1, m1); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(k1); !ok { // a plain Get builds nothing
		t.Fatal("stored key missed")
	}
	stats(0)
	first := getReply(t, st, k1, m1)
	stats(1, first)
	if again := getReply(t, st, k1, m1); &again[0] != &first[0] {
		t.Error("second GetReply re-encoded instead of sharing the front's bytes")
	}
	stats(1, first)

	// An overwriting Put resets the bytes: the next reply is the new
	// measurement's, never the old one's.
	m1b := testMeasurement("hydro", 1.5, 777)
	if err := st.Put(k1, m1b); err != nil {
		t.Fatal(err)
	}
	stats(1)
	second := getReply(t, st, k1, m1b)
	if bytes.Equal(first, second) {
		t.Fatal("overwritten measurement kept its old reply form")
	}
	stats(2, second)

	// Eviction drops the bytes with the entry (front bound 2): k1 is the
	// oldest once k2 and k3 have been asked for.
	k2, m2 := testKey("hydro", 2.0), testMeasurement("hydro", 2.0, 200)
	k3, m3 := testKey("hydro", 2.5), testMeasurement("hydro", 2.5, 300)
	for _, p := range []struct {
		k string
		m dse.Measurement
	}{{k2, m2}, {k3, m3}} {
		if err := st.Put(p.k, p.m); err != nil {
			t.Fatal(err)
		}
	}
	r2, r3 := getReply(t, st, k2, m2), getReply(t, st, k3, m3)
	stats(4, r2, r3)
	// k1 comes back through the engine and is built again, evicting k2.
	r1 := getReply(t, st, k1, m1b)
	stats(5, r3, r1)
}

// TestFrontReplyReadOnly: a read-only handle serves reply forms for what the
// writer published and for what its own front-only Put holds.
func TestFrontReplyReadOnly(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	k, m := testKey("btmz", 2.0), testMeasurement("btmz", 2.0, 42)
	if err := w.Put(k, m); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	getReply(t, ro, k, m)
	local, lm := testKey("btmz", 3.0), testMeasurement("btmz", 3.0, 43)
	if err := ro.Put(local, lm); err != nil {
		t.Fatal(err)
	}
	getReply(t, ro, local, lm)
	if got := ro.FrontStats(); got.ReplyBuilds != 2 {
		t.Fatalf("read-only front built %d reply forms, want 2", got.ReplyBuilds)
	}
}

// TestFrontReplyConcurrentFirstRequests: first requests racing for one key —
// resident or still in the engine — all get the same bytes, and the front
// ends up holding one copy. Run under -race.
func TestFrontReplyConcurrentFirstRequests(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k, m := testKey("lulesh", 2.0), testMeasurement("lulesh", 2.0, 9)
	if err := st.Put(k, m); err != nil {
		t.Fatal(err)
	}
	race := func(st *Store) {
		t.Helper()
		const n = 8
		replies := make([][]byte, n)
		var wg sync.WaitGroup
		for i := range replies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, replies[i], _ = st.GetReply(k)
			}()
		}
		wg.Wait()
		want := wantReply(t, m)
		for i, r := range replies {
			if !bytes.Equal(r, want) {
				t.Fatalf("racer %d got %q, want %q", i, r, want)
			}
		}
		if got := st.FrontStats(); got.ReplyBytes != int64(len(want)) || got.ReplyBuilds < 1 {
			t.Fatalf("FrontStats after the race = %+v, want one resident copy of %d bytes", got, len(want))
		}
	}
	race(st) // the entry is resident (Put filled the front)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopened, and the front the open warmed emptied: every racer's first
	// lookup goes to the engine.
	st, err = Open(dir, Options{LRUEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.mu.Lock()
	st.lru = newLRU(1)
	st.mu.Unlock()
	race(st)
}
