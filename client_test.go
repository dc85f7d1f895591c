package musa

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"
)

func testClientOpts(dir string) ClientOptions {
	return ClientOptions{
		CacheDir:     dir,
		SweepWorkers: 2,
		MaxJobs:      2,
		SampleInstrs: 20000,
		WarmupInstrs: 40000,
		Seed:         1,
		ReplayRanks:  []int{4, 8},
		// An explicit default network exercises the fill path: kinds that
		// take no network (unconventional) must not inherit it.
		Network: "mn4",
	}
}

func newTestClient(t *testing.T, dir string) *Client {
	t.Helper()
	c, err := NewClient(testClientOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClientRunAllKinds smoke-tests every experiment kind through the one
// unified entry point.
func TestClientRunAllKinds(t *testing.T) {
	c := newTestClient(t, t.TempDir())
	ctx := context.Background()
	arch := DefaultArch()

	node, err := c.Run(ctx, Experiment{Kind: KindNode, App: "btmz", Arch: &arch})
	if err != nil {
		t.Fatal(err)
	}
	if node.Kind != KindNode || node.Measurement == nil || node.Measurement.TimeNs <= 0 {
		t.Fatalf("node result malformed: %+v", node)
	}
	if node.Measurement.IPC <= 0 {
		t.Fatalf("node measurement has no IPC: %+v", node.Measurement)
	}
	if len(node.Measurement.Cluster) != 2 {
		t.Fatalf("client replay defaults not applied: %+v", node.Measurement.Cluster)
	}

	full, err := c.Run(ctx, Experiment{Kind: KindFullApp, App: "hydro", Arch: &arch, Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if full.FullApp == nil || full.FullApp.MakespanNs <= 0 || full.FullApp.SystemEnergyJ <= 0 {
		t.Fatalf("full-app result malformed: %+v", full)
	}

	scaling, err := c.Run(ctx, Experiment{Kind: KindScaling, App: "spec3d", Ranks: 16, CoreCounts: []int{1, 32, 64}})
	if err != nil {
		t.Fatal(err)
	}
	if len(scaling.RegionSpeedups) != 3 || scaling.RegionSpeedups[0] != 1 || scaling.RegionSpeedups[2] <= 1 {
		t.Fatalf("region speedups malformed: %v", scaling.RegionSpeedups)
	}
	if len(scaling.Scaling) != 3 || scaling.Scaling[2].Speedup <= 1 {
		t.Fatalf("scaling results malformed: %+v", scaling.Scaling)
	}

	unconv, err := c.Run(ctx, Experiment{Kind: KindUnconventional})
	if err != nil {
		t.Fatal(err)
	}
	if len(unconv.Unconventional) == 0 {
		t.Fatalf("no unconventional rows: %+v", unconv)
	}
}

// TestUnconventionalThroughTheStore runs Table II through the client's
// store: its two Best-DSE rows are grid points, so a store primed by a
// node-only sweep of them, or by a node-only single-point request, serves
// them, and a repeat run simulates nothing. The rows match a fresh client's.
func TestUnconventionalThroughTheStore(t *testing.T) {
	ctx := context.Background()
	table2 := Experiment{Kind: KindUnconventional}
	simulated := func(c *Client, e Experiment) ([]UnconventionalRow, int64) {
		t.Helper()
		before := c.Stats().Simulated
		res, err := c.Run(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		return res.Unconventional, c.Stats().Simulated - before
	}

	fresh := newTestClient(t, t.TempDir())
	want, n := simulated(fresh, table2)
	if n != 6 {
		t.Fatalf("a fresh Table II run simulated %d points, want 6", n)
	}
	wantJSON, _ := json.Marshal(want)
	var best []int
	for _, r := range want {
		if r.Label != "Best-DSE" {
			continue
		}
		i, ok := gridIndex()[r.Arch.Label()]
		if !ok {
			t.Fatalf("%s Best-DSE %s is off the Table I grid", r.App, r.Arch.Label())
		}
		best = append(best, i)
	}
	if len(best) != 2 {
		t.Fatalf("%d Best-DSE rows, want 2", len(best))
	}

	c := newTestClient(t, t.TempDir())
	if _, n := simulated(c, Experiment{Kind: KindSweep, Apps: []string{"spmz", "lulesh"},
		PointIndices: best, NoReplay: true}); n != 4 {
		t.Fatalf("priming sweep simulated %d points, want 4", n)
	}
	for run, wantN := range []int64{4, 0} {
		rows, n := simulated(c, table2)
		if n != wantN {
			t.Errorf("Table II run %d on a primed store simulated %d points, want %d", run, n, wantN)
		}
		if got, _ := json.Marshal(rows); string(got) != string(wantJSON) {
			t.Errorf("Table II run %d on a primed store:\n %s\nfresh client:\n %s", run, got, wantJSON)
		}
	}

	single := newTestClient(t, t.TempDir())
	if _, err := single.Run(ctx, Experiment{App: "lulesh", PointIndex: &best[1], NoReplay: true}); err != nil {
		t.Fatal(err)
	}
	if _, n := simulated(single, table2); n != 5 {
		t.Errorf("Table II run after a node-only request simulated %d points, want 5", n)
	}
}

// TestUnconventionalCanceled: a Table II run under a canceled context
// returns an error wrapping context.Canceled, and simulates nothing.
func TestUnconventionalCanceled(t *testing.T) {
	c := newTestClient(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.Run(ctx, Experiment{Kind: KindUnconventional})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Table II run: res=%v err=%v, want context.Canceled", res, err)
	}
	if n := c.Stats().Simulated; n != 0 {
		t.Fatalf("canceled Table II run simulated %d points", n)
	}
}

// TestClientNoPanicOnInvalidInput feeds invalid arch/app/ranks through the
// public API: every one must come back as a typed error, never a panic
// (the deprecated wrappers are the only remaining panicking paths and take
// no external input in the CLIs or the HTTP layer).
func TestClientNoPanicOnInvalidInput(t *testing.T) {
	c := newTestClient(t, t.TempDir())
	ctx := context.Background()
	badArch := DefaultArch()
	badArch.CoreType = "quantum"
	negArch := DefaultArch()
	negArch.Cores = -64

	for _, e := range []Experiment{
		{Kind: "hyperdrive", App: "hydro", Arch: archp()},
		{App: "quake", Arch: archp()},
		{App: "hydro", Arch: &badArch},
		{App: "hydro", Arch: &negArch},
		{App: "hydro", PointIndex: intp(1 << 20)},
		{App: "hydro", Arch: archp(), ReplayRanks: []int{-7}},
		{App: "hydro", Arch: archp(), Network: "warpdrive"},
		{Kind: KindFullApp, App: "hydro", Arch: archp(), Ranks: -8},
		{Kind: KindScaling, App: "hydro", CoreCounts: []int{-1}},
		{Kind: KindSweep, Apps: []string{"hydro"}, PointIndices: []int{-2}},
	} {
		res, err := c.Run(ctx, e)
		if err == nil {
			t.Fatalf("invalid experiment accepted: %+v -> %+v", e, res)
		}
		if !errors.Is(err, ErrExperiment) {
			t.Fatalf("invalid experiment %+v returned untyped error %v", e, err)
		}
	}
	if n := c.Stats().Simulated; n != 0 {
		t.Fatalf("invalid input reached the simulator %d times", n)
	}
}

// TestClientCancelMidSweepReturnsPartial is the acceptance behavior of the
// unified API: canceling the context mid-sweep returns the partial dataset
// with an error wrapping context.Canceled.
func TestClientCancelMidSweepReturnsPartial(t *testing.T) {
	c := newTestClient(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	res, err := c.RunStream(ctx, Experiment{
		Kind: KindSweep, Apps: []string{"btmz"}, PointIndices: indices(10),
	}, Observer{
		Progress: func(done, total, cached int) {
			if done == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res == nil || res.Sweep == nil {
		t.Fatal("canceled sweep returned no partial dataset")
	}
	got := len(res.Sweep.Measurements)
	if got == 0 || got >= 10 {
		t.Fatalf("partial dataset has %d of 10 measurements, want a strict subset", got)
	}
}

// indices returns the first n Table I grid indices.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestRunSweepSharesClientCache checks key unification across experiment
// kinds and store handles: points a sweep checkpointed are store hits for a
// later client's node experiments over the same directory.
func TestRunSweepSharesClientCache(t *testing.T) {
	dir := t.TempDir()
	opts := ClientOptions{CacheDir: dir, SampleInstrs: 20000, WarmupInstrs: 40000, Seed: 1}

	sweeper, err := NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sweeper.Run(context.Background(), Experiment{
		Kind: KindSweep, Apps: []string{"hydro"}, PointIndices: []int{6, 7}, ReplayRanks: []int{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sweeper.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Run(context.Background(), Experiment{
		App: "hydro", PointIndex: intp(7), ReplayRanks: []int{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("node experiment missed a measurement the sweep stored")
	}
	if c.Stats().Simulated != 0 {
		t.Fatal("Client re-simulated a stored point")
	}
}

// TestClientCustomApplication registers a custom profile and runs it
// through node and scaling experiments; two different profiles under the
// same name must not share cache entries.
func TestClientCustomApplication(t *testing.T) {
	dir := t.TempDir()
	c := newTestClient(t, dir)
	ctx := context.Background()

	base, err := App("hydro")
	if err != nil {
		t.Fatal(err)
	}
	custom := *base
	custom.Name = "myapp"
	if err := c.RegisterApplication(custom); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterApplication(*base); err == nil {
		t.Fatal("built-in name shadowing accepted")
	}

	arch := DefaultArch()
	res, err := c.Run(ctx, Experiment{App: "myapp", Arch: &arch, NoReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measurement.App != "myapp" || res.Measurement.TimeNs <= 0 {
		t.Fatalf("custom app measurement malformed: %+v", res.Measurement)
	}

	// Same name, different content: the key embeds the profile, so the
	// second client must not be served the first profile's measurement.
	c.Close()
	c2 := newTestClient(t, dir)
	tweaked := custom
	tweaked.Iterations *= 2
	if err := c2.RegisterApplication(tweaked); err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Run(ctx, Experiment{App: "myapp", Arch: &arch, NoReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached {
		t.Fatal("different custom profile content served from the old profile's cache entry")
	}
	if reflect.DeepEqual(res.Measurement, res2.Measurement) {
		t.Fatal("tweaked profile produced an identical measurement")
	}
}

// TestClientNodeMatchesSweep cross-checks the two routes to one measurement:
// a node experiment must agree with the same point simulated inside a
// sweep, on a client that shares nothing with the first.
func TestClientNodeMatchesSweep(t *testing.T) {
	c := newTestClient(t, t.TempDir())
	res, err := c.Run(context.Background(), Experiment{
		App: "spmz", PointIndex: intp(3), NoReplay: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	sweeper := newTestClient(t, "")
	d, err := sweeper.Run(context.Background(), Experiment{
		Kind: KindSweep, Apps: []string{"spmz"}, PointIndices: []int{2, 3, 4}, NoReplay: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	label := res.Measurement.Arch.Label()
	for _, m := range d.Sweep.Measurements {
		if m.Arch.Label() == label {
			if !reflect.DeepEqual(m, *res.Measurement) {
				t.Fatalf("node and sweep pipelines disagree:\n%+v\nvs\n%+v", m, *res.Measurement)
			}
			return
		}
	}
	t.Fatalf("point %s not found in sweep dataset", label)
}

// TestNodeLeaderRechecksStore pins the window between a node request's
// store lookup and its flight lookup. A leader that finishes inside it has
// stored its measurement and left the flight map, so the late request leads
// a flight of its own; it must find the stored measurement on a second
// lookup rather than simulate the key again. The test holds the client's
// lock to keep the request in that window while the measurement is stored.
func TestNodeLeaderRechecksStore(t *testing.T) {
	c := newTestClient(t, t.TempDir())
	e := Experiment{App: "btmz", PointIndex: intp(5), NoReplay: true}
	rt, err := c.Route(e)
	if err != nil {
		t.Fatal(err)
	}
	key := rt.Key
	type ran struct {
		res *Result
		err error
	}
	done := make(chan ran, 1)
	c.mu.Lock()
	go func() {
		res, err := c.Run(context.Background(), e)
		done <- ran{res, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); c.storeMisses.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			c.mu.Unlock()
			t.Fatal("the request never missed the store")
		}
	}
	stored := Measurement{App: "btmz", IPC: 1.25}
	if err := c.st.Put(key, stored); err != nil {
		c.mu.Unlock()
		t.Fatal(err)
	}
	c.mu.Unlock()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if n := c.Stats().Simulated; n != 0 || !r.res.Cached || r.res.Measurement.IPC != stored.IPC {
		t.Fatalf("simulated %d, cached %v, IPC %v: want the stored measurement (IPC %v), not a second simulation",
			n, r.res.Cached, r.res.Measurement.IPC, stored.IPC)
	}
}
