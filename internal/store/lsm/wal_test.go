package lsm

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay opens arbitrary bytes as a store's wal.log. Open must
// neither panic nor refuse the store; it must replay exactly the intact
// prefix parseRecord accepts, last write winning; and after Close, which
// flushes the replayed records into a segment, a second open must replay
// nothing and serve the same keys. The seed corpus under testdata/fuzz
// names one log per case the parser distinguishes: empty, one record, a
// torn tail, a flipped CRC, an oversized length and a key longer than its
// payload.
func FuzzWALReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want := map[string][]byte{}
		var records int64
		off := 0
		for {
			rec, n, ok := parseRecord(data[off:])
			if !ok {
				break
			}
			klen := binary.LittleEndian.Uint32(rec)
			want[string(rec[4:4+klen])] = rec[4+klen:]
			records++
			off += n
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		check := func(db *DB, replayed int64, torn bool) {
			t.Helper()
			if st := db.Stats(); st.WALReplayed != replayed || st.WALTornTail != torn {
				t.Fatalf("replayed %d records (torn %v), want %d (torn %v)", st.WALReplayed, st.WALTornTail, replayed, torn)
			}
			if db.Len() != len(want) {
				t.Fatalf("Len = %d, want %d", db.Len(), len(want))
			}
			for k, v := range want {
				if got, ok := db.Get(k); !ok || !bytes.Equal(got, v) {
					t.Fatalf("key %q = %q (ok=%v), want %q", k, got, ok, v)
				}
			}
		}

		db, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open refused the log: %v", err)
		}
		check(db, records, off < len(data))
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer db.Close()
		check(db, 0, false)
	})
}
