package store

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"musa/internal/cache"
	"musa/internal/dse"
	"musa/internal/net"
)

// FuzzArtifactBlob writes arbitrary payload bytes, in an envelope of each
// artifact kind under a valid key, as a file of an artifact directory and
// reads it typed through a fresh cache — the boundary every artifact from
// outside the process crosses. The read must never panic, whatever it
// serves must be usable — a latency model answers finite latencies idle, at
// half and at four times its peak, a burst trace compiles for replay, and a
// hit-rate table names only hierarchy levels — and a blob the kind's codec
// accepts must be served. The seed corpus under testdata/fuzz holds the
// latency model whose empty latency column crashed its first lookup.
func FuzzArtifactBlob(f *testing.F) {
	kinds := []dse.ArtifactKind{dse.ArtifactHitRates, dse.ArtifactLatencyModel, dse.ArtifactBurst}
	key := strings.Repeat("5a", 32)
	f.Fuzz(func(t *testing.T, kindSel uint8, payload []byte) {
		kind := kinds[int(kindSel)%len(kinds)]
		blob := fmt.Appendf(nil, `{"schema":%d,"key":%q,"kind":%q,"data":%s}`,
			dse.ArtifactSchemaVersion, key, kind, payload)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, key+".json"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenArtifacts(dir)
		if err != nil {
			t.Fatal(err)
		}
		env, err := decodeEnvelope(key, blob)
		if err == nil && env.Kind != kind {
			err = fmt.Errorf("envelope names kind %q", env.Kind)
		}
		var served bool
		switch kind {
		case dse.ArtifactLatencyModel:
			if err == nil {
				_, err = latencyCodec.decode(env.Data)
			}
			m, ok := c.LatencyModel(key)
			if served = ok; ok {
				for _, load := range []float64{0, m.PeakBW / 2, 4 * m.PeakBW} {
					if ns := m.LatencyNs(load); math.IsNaN(ns) || math.IsInf(ns, 0) {
						t.Fatalf("served latency model %+v answers %v ns at %v B/s", m, ns, load)
					}
				}
			}
		case dse.ArtifactBurst:
			if err == nil {
				_, err = burstCodec.decode(env.Data)
			}
			b, ok := c.Burst(key)
			if served = ok; ok {
				if _, cerr := net.Compile(b); cerr != nil {
					t.Fatalf("served burst trace does not compile: %v", cerr)
				}
			}
		case dse.ArtifactHitRates:
			if err == nil {
				_, err = hitRatesCodec.decode(env.Data)
			}
			h, ok := c.HitRates(key)
			if served = ok; ok {
				for i, lvl := range h.Levels {
					if lvl > uint8(cache.LevelMem) {
						t.Fatalf("served hit-rate table has level %d at %d", lvl, i)
					}
				}
			}
		}
		if served != (err == nil) {
			t.Fatalf("served = %v, but the codec says %v", served, err)
		}
	})
}
