package musa_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"musa"
	"musa/internal/serve"
)

// newFleetWorker spins up an in-process `musa serve` worker: a real
// serve.NewHandler over its own Client, optionally wrapped by mw.
func newFleetWorker(t *testing.T, mw func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	return newFleetWorkerOpts(t, musa.ClientOptions{SweepWorkers: 2, MaxJobs: 2}, mw)
}

func newFleetWorkerOpts(t *testing.T, opts musa.ClientOptions, mw func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	c, err := musa.NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var h http.Handler = serve.NewHandler(serve.New(c))
	if mw != nil {
		h = mw(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// fleetTestExperiment spans at least two annotation groups (so the planner
// produces multiple shards) while staying small enough for test time: the
// first points of the grid plus the first point of a different group.
func fleetTestExperiment(t *testing.T) musa.Experiment {
	t.Helper()
	sig := func(i int) string {
		a, err := musa.PointArch(i)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d/%d/%s/%v", a.Cores, a.VectorBits, a.CacheLabel, a.HBM)
	}
	idx := []int{0, 1, 2}
	first := sig(0)
	for i := 3; i < musa.PointCount(); i++ {
		if sig(i) != first {
			idx = append(idx, i, i+1)
			break
		}
	}
	return musa.Experiment{
		Kind: musa.KindSweep, Apps: []string{"btmz"}, PointIndices: idx,
		Sample: 20000, Warmup: 40000, Seed: 1, ReplayRanks: []int{4},
	}
}

// shardCountOf mirrors the planner's grouping to predict how many shards an
// experiment splits into, using only public API.
func shardCountOf(t *testing.T, e musa.Experiment) int {
	t.Helper()
	groups := map[string]bool{}
	for _, i := range e.PointIndices {
		a, err := musa.PointArch(i)
		if err != nil {
			t.Fatal(err)
		}
		groups[fmt.Sprintf("%d/%d/%s/%v", a.Cores, a.VectorBits, a.CacheLabel, a.HBM)] = true
	}
	return len(groups) * len(e.Apps)
}

func canonicalMeasurements(t *testing.T, res *musa.Result) []byte {
	t.Helper()
	if res == nil || res.Sweep == nil {
		t.Fatal("no sweep result")
	}
	b, err := json.Marshal(res.Sweep.Measurements)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetShardMergeDeterminism is the distributed-determinism contract: a
// sweep dispatched across 1, 2 and 4 workers merges into a dataset
// byte-identical (canonical JSON) to the in-process run, and the
// coordinator's store holds the same node keys — verified by re-requesting
// a swept point as a node experiment and observing a store hit.
func TestFleetShardMergeDeterminism(t *testing.T) {
	exp := fleetTestExperiment(t)
	ctx := context.Background()

	local, err := musa.NewClient(musa.ClientOptions{SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	want, err := local.Run(ctx, exp)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := canonicalMeasurements(t, want)
	if len(want.Sweep.Measurements) != len(exp.PointIndices) {
		t.Fatalf("local run: %d measurements for %d points",
			len(want.Sweep.Measurements), len(exp.PointIndices))
	}

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			var urls []string
			for i := 0; i < n; i++ {
				urls = append(urls, newFleetWorker(t, nil).URL)
			}
			coord, err := musa.NewClient(musa.ClientOptions{
				Workers: urls, SweepWorkers: 2, CacheDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()

			var progressed atomic.Int32
			res, err := coord.RunStream(ctx, exp, musa.Observer{
				Progress: func(done, total, cached int) {
					progressed.Store(int32(done))
					if total != len(exp.PointIndices) {
						t.Errorf("progress total = %d, want %d", total, len(exp.PointIndices))
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := canonicalMeasurements(t, res); string(got) != string(wantJSON) {
				t.Fatalf("fleet dataset differs from in-process run:\n%s\nvs\n%s", got, wantJSON)
			}
			if int(progressed.Load()) != len(exp.PointIndices) {
				t.Fatalf("final progress = %d", progressed.Load())
			}
			if st := coord.Stats(); st.Remote != int64(len(exp.PointIndices)) {
				t.Fatalf("remote-computed = %d, want %d", st.Remote, len(exp.PointIndices))
			}
			if n := coord.Snapshot().Store.Len; n != len(exp.PointIndices) {
				t.Fatalf("coordinator store has %d entries, want %d", n, len(exp.PointIndices))
			}

			// Store-key interop: a single-point node experiment over a swept
			// point must be served from the warmed coordinator store.
			i := exp.PointIndices[0]
			node, err := coord.Run(ctx, musa.Experiment{
				Kind: musa.KindNode, App: "btmz", PointIndex: &i,
				Sample: exp.Sample, Warmup: exp.Warmup, Seed: exp.Seed,
				ReplayRanks: exp.ReplayRanks,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !node.Cached {
				t.Fatal("swept point not served from the coordinator store: fleet keys diverge from node keys")
			}

			// A repeated fleet sweep is a pure store read: no dispatch.
			before := coord.Stats().Remote
			again, err := coord.Run(ctx, exp)
			if err != nil {
				t.Fatal(err)
			}
			if got := canonicalMeasurements(t, again); string(got) != string(wantJSON) {
				t.Fatal("cached fleet dataset differs")
			}
			if coord.Stats().Remote != before {
				t.Fatal("repeated sweep re-dispatched cached points")
			}
		})
	}
}

// TestFleetWorkerDefaultsCannotSkew pins the wire contract of
// shardExperiment: a worker configured with its own fidelity defaults
// (as if started `musa serve -sample 5000`) must still compute exactly the
// measurements the coordinator and the local pool would, even when the
// coordinator's sweep leaves fidelity implicit — the shard carries the
// materialized package defaults, so the worker's fill never applies.
func TestFleetWorkerDefaultsCannotSkew(t *testing.T) {
	exp := musa.Experiment{
		Kind: musa.KindSweep, Apps: []string{"btmz"}, PointIndices: []int{0, 1, 2},
		Seed: 1, NoReplay: true, // implicit Sample/Warmup: the package defaults
	}
	ctx := context.Background()

	local, err := musa.NewClient(musa.ClientOptions{SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	want, err := local.Run(ctx, exp)
	if err != nil {
		t.Fatal(err)
	}

	skewed := newFleetWorkerOpts(t, musa.ClientOptions{
		SweepWorkers: 2, MaxJobs: 2,
		SampleInstrs: 5000, WarmupInstrs: 5000, // would skew if applied
	}, nil)
	coord, err := musa.NewClient(musa.ClientOptions{Workers: []string{skewed.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	res, err := coord.Run(ctx, exp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalMeasurements(t, res), canonicalMeasurements(t, want); string(got) != string(want) {
		t.Fatal("a worker's own fidelity defaults skewed the fleet dataset")
	}
	if st := coord.Stats(); st.Remote != 3 {
		t.Fatalf("remote = %d, want 3 (shard must have run on the skewed worker)", st.Remote)
	}
}

// TestFleetWorkerFailure drives the retry path: a worker answering /shard
// with 500 gets each shard re-dispatched onto the local pool exactly once,
// and the merged dataset is complete with no duplicate measurements.
func TestFleetWorkerFailure(t *testing.T) {
	exp := fleetTestExperiment(t)
	shards := shardCountOf(t, exp)
	if shards < 2 {
		t.Fatalf("want >= 2 shards, have %d", shards)
	}
	ctx := context.Background()

	local, err := musa.NewClient(musa.ClientOptions{SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	want, err := local.Run(ctx, exp)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := canonicalMeasurements(t, want)

	for _, mode := range []string{"http500", "timeout"} {
		t.Run(mode, func(t *testing.T) {
			var shardReqs atomic.Int32
			bad := newFleetWorker(t, func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path != "/shard" {
						h.ServeHTTP(w, r)
						return
					}
					shardReqs.Add(1)
					if mode == "timeout" {
						// Drain the body so the server notices the client
						// abandoning the request and cancels the context.
						io.Copy(io.Discard, r.Body)
						<-r.Context().Done()
						return
					}
					http.Error(w, "worker on fire", http.StatusInternalServerError)
				})
			})
			opts := musa.ClientOptions{Workers: []string{bad.URL}, SweepWorkers: 2}
			if mode == "timeout" {
				opts.ShardTimeout = 100 * time.Millisecond
			}
			coord, err := musa.NewClient(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()

			res, err := coord.Run(ctx, exp)
			if err != nil {
				t.Fatal(err)
			}
			if got := canonicalMeasurements(t, res); string(got) != string(wantJSON) {
				t.Fatal("dataset after worker failure differs from in-process run")
			}
			if n := len(res.Sweep.Measurements); n != len(exp.PointIndices) {
				t.Fatalf("%d measurements, want %d (duplicates or losses)", n, len(exp.PointIndices))
			}
			st := coord.Stats()
			if st.Redispatched != int64(shards) {
				t.Fatalf("redispatched = %d, want one per shard (%d)", st.Redispatched, shards)
			}
			if st.Remote != 0 {
				t.Fatalf("remote = %d measurements from a dead worker", st.Remote)
			}
			if mode == "http500" && int(shardReqs.Load()) != shards {
				t.Fatalf("worker saw %d shard requests, want exactly %d", shardReqs.Load(), shards)
			}
		})
	}
}

// TestFleetOversizedShardReply checks the reply bound: a worker whose
// genuine /shard reply is padded with leading whitespace past
// MaxShardReplyPerPoint per point has failed its attempt, so that shard
// runs locally once and the dataset is still byte-identical to the
// in-process run.
func TestFleetOversizedShardReply(t *testing.T) {
	exp := fleetTestExperiment(t)
	ctx := context.Background()

	local, err := musa.NewClient(musa.ClientOptions{SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	want, err := local.Run(ctx, exp)
	if err != nil {
		t.Fatal(err)
	}

	// No shard holds more points than the sweep, so this padding is past
	// the bound of whichever shard gets it.
	pad := bytes.Repeat([]byte(" "), len(exp.PointIndices)*musa.MaxShardReplyPerPoint)
	var padded atomic.Bool
	w := newFleetWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/shard" || !padded.CompareAndSwap(false, true) {
				h.ServeHTTP(rw, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				t.Errorf("worker answered its shard with %d", rec.Code)
			}
			rw.Header().Set("Content-Type", "application/json")
			rw.Write(pad)
			rw.Write(rec.Body.Bytes())
		})
	})

	coord, err := musa.NewClient(musa.ClientOptions{Workers: []string{w.URL}, SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	got, err := coord.Run(ctx, exp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonicalMeasurements(t, got), canonicalMeasurements(t, want)) {
		t.Fatal("sweep with an oversized shard reply differs from the in-process run")
	}
	st := coord.Stats()
	if st.Redispatched != 1 {
		t.Fatalf("redispatched = %d, want 1 (the oversized reply's shard)", st.Redispatched)
	}
	if n := len(want.Sweep.Measurements); int(st.Remote) >= n || int(st.Remote+st.Simulated) != n {
		t.Fatalf("remote %d + local %d, want the %d points split with the oversized shard local",
			st.Remote, st.Simulated, n)
	}
}

// TestFleetCancelMidDispatch checks the cancellation contract of the
// distributed path: canceling ctx mid-dispatch returns the partial dataset
// alongside an error wrapping context.Canceled, exactly like the
// in-process runner.
func TestFleetCancelMidDispatch(t *testing.T) {
	exp := fleetTestExperiment(t)
	if shardCountOf(t, exp) < 2 {
		t.Fatal("want >= 2 shards")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The worker answers its first shard normally and parks every later
	// shard until the coordinator hangs up, so cancellation is observed
	// with exactly one shard's measurements merged.
	var shardReqs atomic.Int32
	worker := newFleetWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/shard" && shardReqs.Add(1) > 1 {
				io.Copy(io.Discard, r.Body) // unblock disconnect detection
				<-r.Context().Done()
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	coord, err := musa.NewClient(musa.ClientOptions{Workers: []string{worker.URL}, SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	res, err := coord.RunStream(ctx, exp, musa.Observer{
		Progress: func(done, total, cached int) {
			if done > 0 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("canceled fleet sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if res == nil || res.Sweep == nil {
		t.Fatal("canceled fleet sweep returned no partial dataset")
	}
	if n := len(res.Sweep.Measurements); n == 0 || n >= len(exp.PointIndices) {
		t.Fatalf("partial dataset has %d of %d measurements", n, len(exp.PointIndices))
	}
}
