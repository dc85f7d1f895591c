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

// raceEnabled is set by race_test.go: allocation pins skip under -race,
// where sync.Pool deliberately drops a share of its Puts.
var raceEnabled bool

// simulateHitFixture primes 128 lulesh points into a client's store, all
// resident in the decoded front, and returns a function sending n POST
// /simulate store hits through the whole handler — middleware, admission,
// decode, Normalize and key, store front, reply — without a socket. The
// first pass over the keys builds each one's reply form and fills the pools.
func simulateHitFixture(tb testing.TB) (batch func(n int)) {
	c, err := musa.NewClient(musa.ClientOptions{
		CacheDir: tb.TempDir(), SampleInstrs: 2000, WarmupInstrs: 4000, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	const keys = 128
	points := make([]int, keys)
	bodies := make([][]byte, keys)
	for i := range points {
		points[i] = i * 6 // spread over the grid's core types and frequencies
		bodies[i] = []byte(fmt.Sprintf(`{"app":"lulesh","pointIndex":%d}`, points[i]))
	}
	if _, err := c.Run(context.Background(), musa.Experiment{
		Kind: musa.KindSweep, Apps: []string{"lulesh"}, PointIndices: points,
	}); err != nil {
		tb.Fatal(err)
	}
	h := serve.NewHandler(serve.New(c), serve.WithAdmission(8, 64),
		serve.WithRegistry(obs.NewRegistry()), serve.WithRecorder(obs.NewRecorder(0)))
	w := &discardWriter{header: http.Header{}}
	simulated := c.Stats().Simulated
	return func(n int) {
		for i := 0; i < n; i++ {
			w.status = 0
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/simulate", bytes.NewReader(bodies[i%keys])))
			if w.status != http.StatusOK {
				tb.Fatalf("request %d: status %d", i, w.status)
			}
		}
		if n := c.Stats().Simulated - simulated; n != 0 {
			tb.Fatalf("%d requests simulated; every one should be a store hit", n)
		}
	}
}

// BenchmarkServeSimulateHit measures one batch of 8192 /simulate store hits
// (each resident key asked 64 times). ns/hit and allocs/hit are the
// per-request cost and include the 10 allocations of building the request
// itself (httptest.NewRequest); TestServeSimulateHitAllocs holds allocs/hit,
// the stable half.
func BenchmarkServeSimulateHit(b *testing.B) {
	const hits = 8192
	batch := simulateHitFixture(b)
	batch(hits)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch(hits)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perHit := float64(b.N * hits)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perHit, "ns/hit")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perHit, "allocs/hit")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perHit, "B/hit")
}

// TestServeSimulateHitAllocs pins what a store hit allocates through the
// whole handler, request construction included: 27.01 per hit since the
// route, the request span and the request plumbing stopped allocating for
// their own bookkeeping (38.01 before, 46.01 before a hit was answered at
// the door). No workload of BENCHMARK.json isolates it, and a reply form or
// canonical key that quietly starts reflecting again shows here first.
func TestServeSimulateHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector, and the hit path pools its reply buffer")
	}
	const hits, ceiling = 4096, 30
	batch := simulateHitFixture(t)
	if got := testing.AllocsPerRun(1, func() { batch(hits) }) / hits; got >= ceiling {
		t.Fatalf("%.2f allocations per /simulate hit, want fewer than %d", got, ceiling)
	}
}
