package musa_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"musa"
	"musa/internal/obs"
	"musa/internal/serve"
)

// discardWriter is a ResponseWriter that keeps nothing, so the benchmark
// below counts the handler's allocations and not a recorder's.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// BenchmarkServeSimulateHit measures one batch of 8192 POST /simulate store
// hits through the whole handler — middleware, admission, decode, Normalize
// and key, store front, reply — without a socket: 128 primed keys, all
// resident in the decoded front, each asked 64 times per batch (a batch, so
// -benchtime 1x reads above a tenth of a second). ns/hit
// and allocs/hit are the per-request cost; allocs/hit is the stable half and
// includes the ~25 allocations of building the request itself.
func BenchmarkServeSimulateHit(b *testing.B) {
	const keys, hits = 128, 8192
	c, err := musa.NewClient(musa.ClientOptions{
		CacheDir: b.TempDir(), SampleInstrs: 2000, WarmupInstrs: 4000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	points := make([]int, keys)
	bodies := make([][]byte, keys)
	for i := range points {
		points[i] = i * 6 // spread over the grid's core types and frequencies
		bodies[i] = []byte(fmt.Sprintf(`{"app":"lulesh","pointIndex":%d}`, points[i]))
	}
	if _, err := c.Run(context.Background(), musa.Experiment{
		Kind: musa.KindSweep, Apps: []string{"lulesh"}, PointIndices: points,
	}); err != nil {
		b.Fatal(err)
	}
	h := serve.NewHandler(serve.New(c), serve.WithAdmission(8, 64),
		serve.WithRegistry(obs.NewRegistry()), serve.WithRecorder(obs.NewRecorder(0)))
	w := &discardWriter{header: http.Header{}}
	batch := func() {
		for i := 0; i < hits; i++ {
			w.status = 0
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/simulate", bytes.NewReader(bodies[i%keys])))
			if w.status != http.StatusOK {
				b.Fatalf("request %d: status %d", i, w.status)
			}
		}
	}
	batch() // builds each key's reply form, fills the pools
	simulated := c.Stats().Simulated
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if n := c.Stats().Simulated - simulated; n != 0 {
		b.Fatalf("%d requests simulated; every one should be a store hit", n)
	}
	perHit := float64(b.N * hits)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perHit, "ns/hit")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perHit, "allocs/hit")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perHit, "B/hit")
}
