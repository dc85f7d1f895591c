package musa_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"musa"
	"musa/internal/obs"
	"musa/internal/serve"
)

// startRingReplicas spins up n in-process `musa serve` replicas that all know
// the full ring membership (including themselves) from the start: every
// listener binds before any client is built, mirroring how real deployments
// pass -self/-peers. The opts callback customizes each replica; nil gets
// sensible test defaults.
func startRingReplicas(t *testing.T, n int, opts func(i int) (musa.ClientOptions, []serve.Option)) ([]string, []*musa.Client) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + servers[i].Listener.Addr().String()
	}
	clients := make([]*musa.Client, n)
	for i, ts := range servers {
		co := musa.ClientOptions{SweepWorkers: 2, MaxJobs: 2}
		var so []serve.Option
		if opts != nil {
			co, so = opts(i)
		}
		co.Ring = musa.NewRing(urls[i], urls)
		c, err := musa.NewClient(co)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		t.Cleanup(func() { c.Close() })
		ts.Config.Handler = serve.NewHandler(serve.New(c), so...)
		ts.Start()
		t.Cleanup(ts.Close)
	}
	return urls, clients
}

// counterValue reads one labeled series of a counter family from reg.
func counterValue(reg *obs.Registry, name string, labels map[string]string) float64 {
	for _, f := range reg.Snapshot() {
		if f.Name != name {
			continue
		}
	series:
		for _, s := range f.Series {
			for k, v := range labels {
				found := false
				for _, l := range s.Labels {
					if l.Name == k && l.Value == v {
						found = true
						break
					}
				}
				if !found {
					continue series
				}
			}
			return s.Value
		}
	}
	return 0
}

// stageObservations reads the observation count of one dse pipeline stage
// from the process-global registry. Tests assert on deltas, never absolute
// values, since every test in the binary shares the registry.
func stageObservations(stage string) uint64 {
	for _, f := range obs.DefaultRegistry().Snapshot() {
		if f.Name != "musa_dse_stage_seconds" {
			continue
		}
		for _, s := range f.Series {
			for _, l := range s.Labels {
				if l.Name == "stage" && l.Value == stage {
					return s.Count
				}
			}
		}
	}
	return 0
}

// TestRingSweepByteIdentical is the acceptance contract for the scaled
// serve tier: a sweep dispatched through a 3-replica ring (owner-pinned
// shards, each replica building the artifacts of the groups it owns) merges
// into a dataset byte-identical to the in-process run.
func TestRingSweepByteIdentical(t *testing.T) {
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

	urls, _ := startRingReplicas(t, 3, nil)
	coord, err := musa.NewClient(musa.ClientOptions{
		Workers: urls, SweepWorkers: 2, CacheDir: t.TempDir(),
		Ring: musa.NewRing("", urls), // dispatch into the ring without joining it
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	got, err := coord.Run(ctx, exp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonicalMeasurements(t, got), canonicalMeasurements(t, want)) {
		t.Fatal("ring-dispatched sweep differs from the in-process run")
	}
	st := coord.Stats()
	if int(st.Remote) != len(want.Sweep.Measurements) {
		t.Fatalf("remote = %d, want all %d measurements from replicas", st.Remote, len(want.Sweep.Measurements))
	}
	if st.Redispatched != 0 {
		t.Fatalf("redispatched = %d shards with all replicas healthy, want 0", st.Redispatched)
	}

	// Store interop: the coordinator checkpointed the merged sweep under the
	// same node keys the in-process runner writes, so re-requesting one
	// swept point is a store hit, not a simulation.
	hitsBefore := coord.Stats().StoreHits
	node := musa.Experiment{
		Kind: musa.KindNode, App: exp.Apps[0], PointIndex: &exp.PointIndices[0],
		Sample: exp.Sample, Warmup: exp.Warmup, Seed: exp.Seed, ReplayRanks: exp.ReplayRanks,
	}
	if _, err := coord.Run(ctx, node); err != nil {
		t.Fatal(err)
	}
	if coord.Stats().StoreHits != hitsBefore+1 {
		t.Fatal("swept point not served from the coordinator store under the node key")
	}
}

// TestRingSimulateCoalesces is distributed single-flight: identical
// /simulate requests hitting every replica of a 3-ring concurrently all
// converge on the key's owner, which computes the measurement exactly once.
// Non-owners account their forwards under the proxied ring counter.
func TestRingSimulateCoalesces(t *testing.T) {
	regs := make([]*obs.Registry, 3)
	urls, clients := startRingReplicas(t, 3, func(i int) (musa.ClientOptions, []serve.Option) {
		regs[i] = obs.NewRegistry()
		return musa.ClientOptions{SweepWorkers: 2, MaxJobs: 4, CacheDir: t.TempDir()},
			[]serve.Option{serve.WithRegistry(regs[i])}
	})

	body := `{"app":"btmz","pointIndex":5,"sample":20000,"warmup":40000,"seed":9,"noReplay":true}`
	const perReplica = 3
	type reply struct {
		code        int
		measurement string
	}
	replies := make(chan reply, perReplica*len(urls))
	var wg sync.WaitGroup
	for _, u := range urls {
		for k := 0; k < perReplica; k++ {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				resp, err := http.Post(u+"/simulate", "application/json", strings.NewReader(body))
				if err != nil {
					replies <- reply{code: -1, measurement: err.Error()}
					return
				}
				defer resp.Body.Close()
				var out struct {
					Measurement json.RawMessage `json:"measurement"`
				}
				json.NewDecoder(resp.Body).Decode(&out)
				replies <- reply{code: resp.StatusCode, measurement: string(out.Measurement)}
			}(u)
		}
	}
	wg.Wait()
	close(replies)

	first := ""
	for r := range replies {
		if r.code != http.StatusOK {
			t.Fatalf("replica answered %d (%s), want 200", r.code, r.measurement)
		}
		if first == "" {
			first = r.measurement
		} else if r.measurement != first {
			t.Fatal("replicas returned different measurements for one experiment")
		}
	}

	var simulated int64
	for _, c := range clients {
		simulated += c.Stats().Simulated
	}
	if simulated != 1 {
		t.Fatalf("simulated = %d across the ring for %d identical requests, want exactly 1",
			simulated, perReplica*len(urls))
	}
	var proxied, local float64
	for _, reg := range regs {
		proxied += counterValue(reg, "musa_ring_owner_requests_total", map[string]string{"result": "proxied"})
		local += counterValue(reg, "musa_ring_owner_requests_total", map[string]string{"result": "local"})
	}
	if want := float64(2 * perReplica); proxied != want {
		t.Fatalf("proxied = %v, want %v (every non-owner request forwards)", proxied, want)
	}
	if want := float64(3 * perReplica); local != want {
		t.Fatalf("local = %v, want %v (the owner executes direct and proxied requests)", local, want)
	}
}

// TestRingHitServedWhereItLands is the ring's hit contract: ownership places
// misses, a hit is served by the replica it reaches. A non-owner asked for a
// key the owner has computed relays it once (result="proxied"), keeps the
// relayed measurement in its store front, and answers the second request
// itself (result="hit") without asking the owner. Every reply carries the
// same measurement bytes, a recompute still goes to the owner, and what the
// non-owner relayed never reaches its engine.
func TestRingHitServedWhereItLands(t *testing.T) {
	regs := make([]*obs.Registry, 3)
	urls, clients := startRingReplicas(t, 3, func(i int) (musa.ClientOptions, []serve.Option) {
		regs[i] = obs.NewRegistry()
		return musa.ClientOptions{SweepWorkers: 2, MaxJobs: 2, CacheDir: t.TempDir()},
			[]serve.Option{serve.WithRegistry(regs[i])}
	})
	const body = `{"app":"lulesh","pointIndex":7,"sample":20000,"warmup":40000,"seed":3,"noReplay":true}`
	var e musa.Experiment
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatal(err)
	}
	key, err := clients[0].RouteKey(e)
	if err != nil {
		t.Fatal(err)
	}
	owner := -1
	for i, u := range urls {
		if clients[0].Ring().Owner(key) == u {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatalf("owner %q of the key is no replica", clients[0].Ring().Owner(key))
	}
	other := (owner + 1) % len(urls)

	post := func(url, body string) json.RawMessage {
		t.Helper()
		resp, err := http.Post(url+"/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Measurement json.RawMessage `json:"measurement"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s/simulate -> %d (%v)", url, resp.StatusCode, err)
		}
		return out.Measurement
	}
	results := func(i int, result string) float64 {
		return counterValue(regs[i], "musa_ring_owner_requests_total", map[string]string{"result": result})
	}

	computed := post(urls[owner], body)
	st := clients[other].Snapshot().Store
	ownerRuns := clients[owner].Stats().Requests

	relayed := post(urls[other], body)
	if p, h := results(other, "proxied"), results(other, "hit"); p != 1 || h != 0 {
		t.Fatalf("first request at a non-owner: proxied %v hit %v, want 1 and 0", p, h)
	}
	if n := clients[owner].Stats().Requests; n != ownerRuns+1 {
		t.Fatalf("owner ran %d requests for the relayed one, want 1", n-ownerRuns)
	}
	kept := post(urls[other], body)
	if p, h := results(other, "proxied"), results(other, "hit"); p != 1 || h != 1 {
		t.Fatalf("second request at the non-owner: proxied %v hit %v, want 1 and 1", p, h)
	}
	if n := clients[owner].Stats().Requests; n != ownerRuns+1 {
		t.Fatal("the owner was asked for a key the non-owner had kept")
	}
	if !bytes.Equal(relayed, computed) || !bytes.Equal(kept, computed) {
		t.Fatalf("measurement bytes differ:\nowner:\n%s\nrelayed:\n%s\nkept:\n%s", computed, relayed, kept)
	}

	recompute := strings.Replace(body, `"noReplay":true`, `"noReplay":true,"recompute":true`, 1)
	if m := post(urls[other], recompute); !bytes.Equal(m, computed) {
		t.Fatal("a recompute through the non-owner answered other measurement bytes")
	}
	if p := results(other, "proxied"); p != 2 {
		t.Fatalf("recompute at the non-owner: proxied %v, want 2 (a recompute skips the store)", p)
	}
	if n := clients[owner].Stats().Requests; n != ownerRuns+2 {
		t.Fatal("the recompute did not reach the owner")
	}

	after := clients[other].Snapshot().Store
	if after.Len != st.Len || after.Engine.WALBytes != st.Engine.WALBytes || after.Engine.Puts != st.Engine.Puts {
		t.Fatalf("the non-owner's engine moved on what it relayed: len %d -> %d, WAL bytes %d -> %d, puts %d -> %d",
			st.Len, after.Len, st.Engine.WALBytes, after.Engine.WALBytes, st.Engine.Puts, after.Engine.Puts)
	}
	if clients[other].Stats().Simulated != 0 {
		t.Fatal("the non-owner simulated")
	}
}

// TestRingGroupOnOneReplica is the placement contract of /simulate: the
// points of one cache group share one hit-rate table, so the ring places
// them all on one replica. Three replicas are asked in turn for every point
// of one (application, cache group); every miss is simulated on the same
// replica, the group's table is built once in total, and every reply is the
// bytes a ringless client answers.
func TestRingGroupOnOneReplica(t *testing.T) {
	_, clients := startRingReplicas(t, 3, func(i int) (musa.ClientOptions, []serve.Option) {
		return musa.ClientOptions{SweepWorkers: 2, MaxJobs: 2, CacheDir: t.TempDir()}, nil
	})
	urls := make([]string, len(clients))
	for i, c := range clients {
		urls[i] = c.Ring().Self()
	}
	first, err := musa.PointArch(0)
	if err != nil {
		t.Fatal(err)
	}
	var group []int
	for i := 0; i < musa.PointCount(); i++ {
		a, err := musa.PointArch(i)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cores == first.Cores && a.VectorBits == first.VectorBits && a.CacheLabel == first.CacheLabel {
			group = append(group, i)
		}
	}
	before := stageObservations("annotate")
	bodies := make([]string, len(group))
	replies := make([]json.RawMessage, len(group))
	for k, i := range group {
		bodies[k] = fmt.Sprintf(`{"app":"spmz","pointIndex":%d,"sample":20000,"warmup":40000,"seed":1,"noReplay":true}`, i)
		resp, err := http.Post(urls[k%len(urls)]+"/simulate", "application/json", strings.NewReader(bodies[k]))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Measurement json.RawMessage `json:"measurement"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("point %d: /simulate -> %d (%v)", i, resp.StatusCode, err)
		}
		replies[k] = out.Measurement
	}
	if built := stageObservations("annotate") - before; built != 1 {
		t.Fatalf("the ring built the group's hit-rate table %d times, want once", built)
	}
	simulated := make([]int64, len(clients))
	var simulating int
	for i, c := range clients {
		if simulated[i] = c.Stats().Simulated; simulated[i] > 0 {
			simulating++
		}
	}
	if simulating != 1 || simulated[0]+simulated[1]+simulated[2] != int64(len(group)) {
		t.Fatalf("replicas simulated %v of the group's %d points, want all on one replica", simulated, len(group))
	}

	ringless, err := musa.NewClient(musa.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ringless.Close()
	for k, body := range bodies {
		var e musa.Experiment
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Fatal(err)
		}
		res, err := ringless.Run(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		want, err := res.MeasurementJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(replies[k], want) {
			t.Fatalf("point %d: the ring answered\n%s\na ringless client\n%s", group[k], replies[k], want)
		}
	}
}

// TestFleetRetryAfter429 checks the coordinator honors a worker's 429 +
// Retry-After with one bounded retry against the same worker instead of
// immediately redispatching the shard locally.
func TestFleetRetryAfter429(t *testing.T) {
	exp := fleetTestExperiment(t)
	ctx := context.Background()

	var shedOnce atomic.Bool
	w := newFleetWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/shard" && shedOnce.CompareAndSwap(false, true) {
				rw.Header().Set("Retry-After", "0")
				http.Error(rw, "overloaded", http.StatusTooManyRequests)
				return
			}
			h.ServeHTTP(rw, r)
		})
	})

	local, err := musa.NewClient(musa.ClientOptions{SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	want, err := local.Run(ctx, exp)
	if err != nil {
		t.Fatal(err)
	}

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
		t.Fatal("sweep through a shedding worker differs from the in-process run")
	}
	st := coord.Stats()
	if st.ShardRetries < 1 {
		t.Fatalf("shardRetries = %d, want >= 1 (the 429 must be retried, not abandoned)", st.ShardRetries)
	}
	if st.Redispatched != 0 {
		t.Fatalf("redispatched = %d, want 0 (the retry keeps the shard remote)", st.Redispatched)
	}
	if int(st.Remote) != len(want.Sweep.Measurements) {
		t.Fatalf("remote = %d, want all %d measurements", st.Remote, len(want.Sweep.Measurements))
	}
}

// TestRingFleetStalledOwner is ring-mode dispatch with the one pending list
// under stress: one of two ring workers accepts shards and never answers.
// The shards it holds are hedged onto the local pool, the ones still pinned
// to it are taken by the other worker's slots or the local pool, and the
// merged dataset is byte-identical to the in-process run.
func TestRingFleetStalledOwner(t *testing.T) {
	// One point from each of six annotation groups: six shards, so the
	// stalled worker's two slots cannot hold everything pinned to it.
	exp := fleetTestExperiment(t)
	exp.PointIndices = nil
	groups := map[string]bool{}
	for i := 0; i < musa.PointCount() && len(groups) < 6; i++ {
		a, err := musa.PointArch(i)
		if err != nil {
			t.Fatal(err)
		}
		if g := fmt.Sprint(a.Cores, a.VectorBits, a.CacheLabel, a.HBM); !groups[g] {
			groups[g] = true
			exp.PointIndices = append(exp.PointIndices, i)
		}
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

	var stalled atomic.Int32
	stall := newFleetWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/shard" {
				stalled.Add(1)
				io.Copy(io.Discard, r.Body) // unblock disconnect detection
				<-r.Context().Done()        // accept, never answer
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	healthy := newFleetWorker(t, nil)
	urls := []string{stall.URL, healthy.URL}
	coord, err := musa.NewClient(musa.ClientOptions{
		Workers: urls, SweepWorkers: 2, Ring: musa.NewRing("", urls),
		ShardTimeout: -1, HedgeAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	got, err := coord.Run(ctx, exp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonicalMeasurements(t, got), canonicalMeasurements(t, want)) {
		t.Fatal("sweep around a stalled ring worker differs from the in-process run")
	}
	if stalled.Load() == 0 {
		t.Fatal("the stalled worker was handed no shard; the test premise is broken")
	}
	if st := coord.Stats(); st.Redispatched == 0 {
		t.Fatalf("no shard held by the stalled worker was hedged: %+v", st)
	}
}
