package store

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"musa/internal/cache"
	"musa/internal/dse"
	"musa/internal/net"
)

// FuzzArtifactBlob pushes arbitrary payload bytes, in an envelope of each
// artifact kind under a valid key, through PutBlob — the boundary every
// artifact from outside the process crosses. PutBlob must never panic, and
// whatever it admits must be usable: a latency model answers finite
// latencies idle, at half and at four times its peak, a burst trace
// compiles for replay, and a hit-rate table names only hierarchy levels. The
// seed corpus under testdata/fuzz holds the latency model whose empty
// latency column crashed its first lookup.
func FuzzArtifactBlob(f *testing.F) {
	kinds := []dse.ArtifactKind{dse.ArtifactHitRates, dse.ArtifactLatencyModel, dse.ArtifactBurst}
	key := strings.Repeat("5a", 32)
	f.Fuzz(func(t *testing.T, kindSel uint8, payload []byte) {
		kind := kinds[int(kindSel)%len(kinds)]
		blob := fmt.Appendf(nil, `{"schema":%d,"key":%q,"kind":%q,"data":%s}`,
			dse.ArtifactSchemaVersion, key, kind, payload)
		c, err := OpenArtifacts("")
		if err != nil {
			t.Fatal(err)
		}
		if c.PutBlob(key, blob) != nil {
			return
		}
		switch kind {
		case dse.ArtifactLatencyModel:
			m, ok := c.LatencyModel(key)
			if !ok {
				t.Fatal("admitted latency model is not served")
			}
			for _, load := range []float64{0, m.PeakBW / 2, 4 * m.PeakBW} {
				if ns := m.LatencyNs(load); math.IsNaN(ns) || math.IsInf(ns, 0) {
					t.Fatalf("admitted latency model %+v answers %v ns at %v B/s", m, ns, load)
				}
			}
		case dse.ArtifactBurst:
			b, ok := c.Burst(key)
			if !ok {
				t.Fatal("admitted burst trace is not served")
			}
			if _, err := net.Compile(b); err != nil {
				t.Fatalf("admitted burst trace does not compile: %v", err)
			}
		case dse.ArtifactHitRates:
			h, ok := c.HitRates(key)
			if !ok {
				t.Fatal("admitted hit-rate table is not served")
			}
			for i, lvl := range h.Levels {
				if lvl > uint8(cache.LevelMem) {
					t.Fatalf("admitted hit-rate table has level %d at %d", lvl, i)
				}
			}
		}
	})
}
