package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadBurst feeds arbitrary bytes to the burst-trace parser, the one
// every stored, fetched or pushed burst artifact goes through. It must never
// panic; a trace it accepts must survive a write/read round trip, and its
// matching must pair every message exactly once: one send half and one
// receive half per message id. The seed corpus is in
// testdata/fuzz/FuzzReadBurst.
func FuzzReadBurst(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBurst(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBurst(&buf, b); err != nil {
			t.Fatalf("an accepted trace does not encode: %v", err)
		}
		again, err := ReadBurst(&buf)
		if err != nil || !reflect.DeepEqual(b, again) {
			t.Fatalf("an accepted trace does not round-trip: %v", err)
		}
		m, err := b.Match()
		if err != nil {
			t.Fatalf("an accepted trace does not match: %v", err)
		}
		sends := make([]int, m.Messages)
		recvs := make([]int, m.Messages)
		for i := range m.SendID {
			if id := m.SendID[i]; id >= 0 {
				sends[id]++
			}
			if id := m.RecvID[i]; id >= 0 {
				recvs[id]++
			}
		}
		for id := range sends {
			if sends[id] != 1 || recvs[id] != 1 {
				t.Fatalf("message %d has %d sends and %d receives", id, sends[id], recvs[id])
			}
		}
	})
}
