package musa_test

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"musa"
	"musa/internal/dse"
	"musa/internal/obs"
)

// windowTestExperiment is a reduced sweep over two applications and two
// vector widths: four (application, width) fuses per run.
func windowTestExperiment(t *testing.T) (exp musa.Experiment, fuses uint64) {
	t.Helper()
	first, err := musa.PointArch(0)
	if err != nil {
		t.Fatal(err)
	}
	var indices []int
	for i := 0; len(indices) < 2; i++ {
		a, err := musa.PointArch(i)
		if err != nil {
			t.Fatal(err)
		}
		vec := a.VectorBits
		a.VectorBits = first.VectorBits
		if a == first && vec != 256 {
			indices = append(indices, i)
		}
	}
	apps := []string{"btmz", "hydro"}
	return musa.Experiment{
		Kind: musa.KindSweep, Apps: apps, PointIndices: indices,
		Sample: 20000, Warmup: 40000, Seed: 1, ReplayRanks: []int{4},
	}, uint64(len(apps) * len(indices))
}

// windowSpans runs exp on c under a private span recorder and returns the
// sweep as JSON plus the window attribute of every dse.scalar-trace span.
func windowSpans(t *testing.T, c *musa.Client, exp musa.Experiment) (string, []string) {
	t.Helper()
	rec := obs.NewRecorder(0)
	res, err := c.Run(obs.WithRecorder(context.Background(), rec), exp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Sweep.Measurements)
	if err != nil {
		t.Fatal(err)
	}
	var windows []string
	for _, s := range rec.Spans() {
		if s.Name != "dse.scalar-trace" {
			continue
		}
		kind := ""
		for _, a := range s.Attrs {
			if a.Key == "window" {
				kind = a.Value
			}
		}
		windows = append(windows, kind)
	}
	return string(b), windows
}

func openClient(t *testing.T, opts musa.ClientOptions) *musa.Client {
	t.Helper()
	opts.SweepWorkers = 2
	c, err := musa.NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestSampleWindowsOutliveTheRun runs one reduced sweep three times on one
// client (no result store, so every run simulates). The first run walks the
// caches, so it generates full windows and leaves their sample parts in the
// client's front; runs two and three generate nothing at all, still fuse once
// per (application, width) — a stage observation stays a real build — and
// return the bytes a client without any cache returns. A second client on the
// same directory finds the tables and generates sample windows only.
func TestSampleWindowsOutliveTheRun(t *testing.T) {
	exp, fuses := windowTestExperiment(t)
	want, _ := windowSpans(t, openClient(t, musa.ClientOptions{NoArtifacts: true}), exp)

	dir := t.TempDir()
	c := openClient(t, musa.ClientOptions{ArtifactCache: dir})
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	for run := 1; run <= 3; run++ {
		delta := stageDeltas()
		got, windows := windowSpans(t, c, exp)
		built := delta()
		if got != want {
			t.Errorf("run %d differs from the cache-less client's dataset", run)
		}
		if built[dse.StageFuse] != fuses {
			t.Errorf("run %d observed %d fuses, want %d (one per application and width, every run)",
				run, built[dse.StageFuse], fuses)
		}
		switch {
		case run == 1 && (len(windows) != len(exp.Apps) || windows[0] != "full" || windows[1] != "full"):
			t.Errorf("priming run generated windows %v, want one full window per application", windows)
		case run > 1 && len(windows) != 0:
			t.Errorf("run %d generated windows %v, want none: the front outlives the run", run, windows)
		}
		if run > 1 && built[dse.StageAnnotate] != 0 {
			t.Errorf("run %d walked the caches %d times", run, built[dse.StageAnnotate])
		}
	}

	const windowBytes = 20000 * 32
	st := c.Snapshot().Artifacts.SampleWindows
	if st.Generated != int64(len(exp.Apps)) || st.Front != int64(3*fuses) || st.ResidentBytes != int64(len(exp.Apps))*windowBytes {
		t.Errorf("front after three runs: %+v, want %d generated, %d served, %d bytes",
			st, len(exp.Apps), 3*fuses, len(exp.Apps)*windowBytes)
	}
	scraped := map[string]float64{}
	for _, f := range reg.Snapshot() {
		for _, s := range f.Series {
			switch f.Name {
			case "musa_dse_sample_windows_total":
				scraped[s.Labels[0].Value] = s.Value
			case "musa_dse_sample_window_bytes":
				scraped["bytes"] = s.Value
			}
		}
	}
	if scraped["front"] != float64(st.Front) || scraped["generated"] != float64(st.Generated) || scraped["bytes"] != float64(st.ResidentBytes) {
		t.Errorf("metrics %v disagree with the snapshot %+v", scraped, st)
	}

	got, windows := windowSpans(t, openClient(t, musa.ClientOptions{ArtifactCache: dir}), exp)
	if got != want {
		t.Error("a second client on the primed directory differs from the cache-less client's dataset")
	}
	if len(windows) != len(exp.Apps) || windows[0] != "sample" || windows[1] != "sample" {
		t.Errorf("a warm first run generated windows %v, want one sample window per application", windows)
	}
}

// nodeRun runs one node experiment and returns the measurement as JSON.
func nodeRun(t *testing.T, c *musa.Client, e musa.Experiment) string {
	t.Helper()
	res, err := c.Run(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Measurement)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSampleWindowKeyDiscriminates: the front is keyed by content. Another
// sample size, another warm-up, another seed and another profile registered
// under a name already seen must each get a window of their own — one more
// generated, and the measurement a cache-less client computes — while
// repeating any of them generates nothing.
func TestSampleWindowKeyDiscriminates(t *testing.T) {
	base, err := musa.App("hydro")
	if err != nil {
		t.Fatal(err)
	}
	custom := *base
	custom.Name = "myapp"
	retuned := custom
	retuned.Vector.TripCount *= 2

	node := func(app string, sample, warmup int64, seed uint64) musa.Experiment {
		return musa.Experiment{App: app, PointIndex: intp(7), Sample: sample, Warmup: warmup, Seed: seed, NoReplay: true}
	}
	steps := []struct {
		name     string
		register *musa.Application
		exp      musa.Experiment
	}{
		{"baseline", nil, node("hydro", 20000, 40000, 1)},
		{"smaller sample", nil, node("hydro", 10000, 40000, 1)},
		{"longer warm-up", nil, node("hydro", 20000, 60000, 1)},
		{"other seed", nil, node("hydro", 20000, 40000, 2)},
		{"custom profile", &custom, node("myapp", 20000, 40000, 1)},
		{"same name, retuned profile", &retuned, node("myapp", 20000, 40000, 1)},
	}

	c := openClient(t, musa.ClientOptions{})
	generated := func() int64 { return c.Snapshot().Artifacts.SampleWindows.Generated }
	seen := map[string]string{}
	for i, s := range steps {
		ref := openClient(t, musa.ClientOptions{NoArtifacts: true})
		if s.register != nil {
			for _, cl := range []*musa.Client{c, ref} {
				if err := cl.RegisterApplication(*s.register); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := nodeRun(t, c, s.exp)
		if generated() != int64(i+1) {
			t.Errorf("%s: %d windows generated so far, want %d (a window of its own)", s.name, generated(), i+1)
		}
		if want := nodeRun(t, ref, s.exp); got != want {
			t.Errorf("%s: measurement differs from a cache-less client's\n got %s\nwant %s", s.name, got, want)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("%s measured exactly what %s did: the steps do not tell windows apart", s.name, prev)
		}
		seen[got] = s.name
		if nodeRun(t, c, s.exp) != got || generated() != int64(i+1) {
			t.Errorf("%s: repeating the request changed the result or generated a window", s.name)
		}
	}
}

// TestConcurrentRunsShareOneWindowBuild primes the hit-rate tables of two
// points of one application, then asks a fresh client for both at once: two
// runs want the same sample window and one of them builds it.
func TestConcurrentRunsShareOneWindowBuild(t *testing.T) {
	dir := t.TempDir()
	exps := []musa.Experiment{
		{App: "spmz", PointIndex: intp(0), Sample: 20000, Warmup: 40000, Seed: 1, NoReplay: true},
		{App: "spmz", PointIndex: intp(1), Sample: 20000, Warmup: 40000, Seed: 1, NoReplay: true},
	}
	prime := openClient(t, musa.ClientOptions{ArtifactCache: dir})
	var want []string
	for _, e := range exps {
		want = append(want, nodeRun(t, prime, e))
	}

	c := openClient(t, musa.ClientOptions{ArtifactCache: dir, MaxJobs: 2})
	got := make([]string, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = nodeRun(t, c, e)
		}()
	}
	wg.Wait()
	for i := range exps {
		if got[i] != want[i] {
			t.Errorf("point %d differs from the priming client's measurement", i)
		}
	}
	if st := c.Snapshot().Artifacts.SampleWindows; st.Generated != 1 || st.Front != 1 {
		t.Errorf("two concurrent runs of one application: %+v, want 1 window generated and 1 request served by it", st)
	}
}

func intp(i int) *int { return &i }
