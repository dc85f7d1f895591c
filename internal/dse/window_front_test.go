package dse

import (
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"musa/internal/apps"
	"musa/internal/dram"
	"musa/internal/node"
	"musa/internal/obs"
	"musa/internal/trace"
)

// mapArtifacts is the smallest ArtifactProvider: three maps. (The real one,
// store.ArtifactCache, imports this package.)
type mapArtifacts struct {
	mu       sync.Mutex
	hitRates map[string]node.HitRateTable
	lat      map[string]dram.LatencyModel
	bursts   map[string]*trace.Burst
}

func newMapArtifacts() *mapArtifacts {
	return &mapArtifacts{
		hitRates: map[string]node.HitRateTable{},
		lat:      map[string]dram.LatencyModel{},
		bursts:   map[string]*trace.Burst{},
	}
}

func mapGet[V any](a *mapArtifacts, m map[string]V, key string) (V, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, ok := m[key]
	return v, ok
}

func mapPut[V any](a *mapArtifacts, m map[string]V, key string, v V) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m[key] = v
}

func (a *mapArtifacts) HitRates(k string) (node.HitRateTable, bool) { return mapGet(a, a.hitRates, k) }
func (a *mapArtifacts) PutHitRates(k string, t node.HitRateTable)   { mapPut(a, a.hitRates, k, t) }
func (a *mapArtifacts) LatencyModel(k string) (dram.LatencyModel, bool) {
	return mapGet(a, a.lat, k)
}
func (a *mapArtifacts) PutLatencyModel(k string, m dram.LatencyModel) { mapPut(a, a.lat, k, m) }
func (a *mapArtifacts) Burst(k string) (*trace.Burst, bool)           { return mapGet(a, a.bursts, k) }
func (a *mapArtifacts) PutBurst(k string, b *trace.Burst)             { mapPut(a, a.bursts, k, b) }

// windowTestOpts is a two-application, two-width sweep at test fidelity.
func windowTestOpts() Options {
	grid := Enumerate()
	var pts []ArchPoint
	for _, p := range grid {
		q := p
		q.VectorBits = grid[0].VectorBits
		if q == grid[0] && p.VectorBits != 256 {
			pts = append(pts, p)
		}
	}
	return Options{
		Apps: []*apps.Profile{apps.BTMZ(), apps.Hydro()}, Points: pts,
		SampleInstrs: 20000, WarmupInstrs: 40000, Seed: 1, Workers: 2,
		Replay: ReplayConfig{Ranks: []int{4}},
	}
}

func datasetJSON(t *testing.T, d *Dataset, want int) string {
	t.Helper()
	if len(d.Measurements) != want {
		t.Fatalf("%d measurements, want %d", len(d.Measurements), want)
	}
	b, err := json.Marshal(d.Measurements)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkpointBytes returns the bytes of the sample-window checkpoint of each
// of opts's applications.
func checkpointBytes(opts Options) []int64 {
	var n []int64
	for _, app := range opts.Apps {
		cp := node.NewScratch().SampleCheckpoint(app, opts.SampleInstrs, opts.WarmupInstrs, opts.Seed)
		n = append(n, cp.Bytes())
	}
	return n
}

// TestSampleWindowFrontEvictsAndRebuilds gives a shared front room for one
// checkpoint fewer than a warm run over two applications needs. The first
// application's checkpoint is evicted when the second's is published, so
// every run steps both generators through their warm windows again — and
// every dataset is still the reference's, byte for byte: eviction trades
// time, never bytes. One worker makes the count exact: with two, a worker
// still resolving the first application when the other has moved on may
// find its checkpoint evicted and build it once more.
func TestSampleWindowFrontEvictsAndRebuilds(t *testing.T) {
	ctx := context.Background()
	opts := windowTestOpts()
	opts.Workers = 1
	n := len(opts.Apps) * len(opts.Points)
	want := datasetJSON(t, Run(ctx, opts), n)

	opts.Artifacts = newMapArtifacts()
	Run(ctx, opts) // primes the hit-rate tables: later runs ask for checkpoints only

	cps := checkpointBytes(opts)
	w := newSampleWindows(cps[0] + cps[1] - 1)
	opts.SampleWindows = w
	for run := 1; run <= 2; run++ {
		if got := datasetJSON(t, Run(ctx, opts), n); got != want {
			t.Errorf("run %d on the undersized front differs from the reference", run)
		}
		st := w.Stats()
		if st.Generated != int64(2*run) {
			t.Errorf("after run %d: %d checkpoints generated, want %d (both applications, every run)", run, st.Generated, 2*run)
		}
		if st.ResidentBytes != cps[0] && st.ResidentBytes != cps[1] {
			t.Errorf("after run %d: %d bytes resident, want one checkpoint (%d or %d)", run, st.ResidentBytes, cps[0], cps[1])
		}
	}

	// With room for both, the third run generates and the fourth does not.
	w = NewSampleWindows()
	opts.SampleWindows = w
	for run := 1; run <= 2; run++ {
		if got := datasetJSON(t, Run(ctx, opts), n); got != want {
			t.Errorf("run %d on the roomy front differs from the reference", run)
		}
	}
	if st := w.Stats(); st.Generated != 2 || st.ResidentBytes != cps[0]+cps[1] || st.Front == 0 {
		t.Errorf("roomy front after two runs: %+v, want 2 generated, %d bytes, front hits", st, cps[0]+cps[1])
	}
}

// TestColdPassLeavesTheFrontsCheckpoint: a run whose tables all miss while
// the front already holds each application's checkpoint runs one full cold
// pass per application — its warm window is needed for the caches — returns
// the reference bytes, and leaves the front as it was: the checkpoint it
// holds is the one the pass took again.
func TestColdPassLeavesTheFrontsCheckpoint(t *testing.T) {
	ctx := context.Background()
	opts := windowTestOpts()
	n := len(opts.Apps) * len(opts.Points)
	want := datasetJSON(t, Run(ctx, opts), n)

	w := NewSampleWindows()
	opts.SampleWindows = w
	Run(ctx, opts) // leaves both checkpoints in the front, and no table anywhere
	before := w.Stats()
	rec := obs.NewRecorder(0)
	if got := datasetJSON(t, Run(obs.WithRecorder(ctx, rec), opts), n); got != want {
		t.Error("a second cold run on the front's checkpoints differs from the reference")
	}
	var passes []string
	for _, s := range rec.Spans() {
		if s.Name == "dse.scalar-trace" {
			for _, a := range s.Attrs {
				if a.Key == "window" {
					passes = append(passes, a.Value)
				}
			}
		}
	}
	if len(passes) != len(opts.Apps) || passes[0] != "full" || passes[1] != "full" {
		t.Errorf("second run's generators ran for windows %v, want one full pass per application", passes)
	}
	if st := w.Stats(); st != before || st.Generated != int64(len(opts.Apps)) {
		t.Errorf("front after two runs: %+v, want %+v: %d checkpoints generated, all by the first", st, before, len(opts.Apps))
	}
}

// TestSampleWindowTooLargeIsNotRetained: a checkpoint bigger than the whole
// bound is handed to its run and dropped, leaving the front as it was.
func TestSampleWindowTooLargeIsNotRetained(t *testing.T) {
	small := node.NewScratch().SampleCheckpoint(apps.LULESH(), 120000, 700000, 1)
	big := node.NewScratch().SampleCheckpoint(apps.SPMZ(), 120000, 700000, 1)
	const bound = 1000
	if small.Bytes() >= bound || big.Bytes() <= bound {
		t.Fatalf("checkpoints of %d and %d bytes do not straddle the %d-byte bound", small.Bytes(), big.Bytes(), bound)
	}
	w := newSampleWindows(bound)
	w.get(sampleWindowKey{app: "small"}, func() *apps.Checkpoint { return small })
	if got := w.get(sampleWindowKey{app: "big"}, func() *apps.Checkpoint { return big }); got != big {
		t.Fatal("the oversized checkpoint did not come back to its caller")
	}
	if st := w.Stats(); st.ResidentBytes != 0 || st.Generated != 2 {
		// FIFO: making room for the oversized checkpoint evicts the older one
		// first, then the oversized checkpoint itself.
		t.Errorf("after an oversized checkpoint: %+v, want nothing resident and 2 generated", st)
	}
}

// TestUnstagedMatchesStaged runs a handful of points through node.Simulate —
// one call, nothing shared, no artifact, no front, no timing memo — and
// through the staged runner, cold and warm, and compares every field a
// measurement takes from the node result.
func TestUnstagedMatchesStaged(t *testing.T) {
	grid := Enumerate()
	points := []ArchPoint{grid[0], grid[1], grid[100], grid[431], grid[863]}
	// Table II's off-grid points: 1024- and 2048-bit SIMD, and 64-bit SIMD
	// over DDR4 x16 and HBM2 x16.
	for _, spec := range tableII() {
		for _, r := range spec.rows[1:] {
			points = append(points, r.arch)
		}
	}
	opts := Options{
		Apps:         []*apps.Profile{apps.LULESH(), apps.SPMZ()},
		Points:       points,
		SampleInstrs: 20000, WarmupInstrs: 40000, Seed: 3, Workers: 2,
		Replay:    ReplayConfig{Disable: true},
		Artifacts: newMapArtifacts(), SampleWindows: NewSampleWindows(),
	}
	ctx := context.Background()
	for _, pass := range []string{"cold", "warm"} {
		d := Run(ctx, opts)
		if len(d.Measurements) != len(opts.Apps)*len(opts.Points) {
			t.Fatalf("%s: %d measurements", pass, len(d.Measurements))
		}
		for _, m := range d.Measurements {
			app, err := apps.ByName(m.App)
			if err != nil {
				t.Fatal(err)
			}
			res := node.Simulate(app, m.Arch.NodeConfig(opts.SampleInstrs, opts.WarmupInstrs, opts.Seed))
			l1, l2, l3 := res.MPKI()
			want := Measurement{
				App: m.App, Arch: m.Arch,
				TimeNs: res.ComputeNs, IPC: res.CoreRes.IPC(), Power: res.Power, EnergyJ: res.EnergyJ,
				L1MPKI: l1, L2MPKI: l2, L3MPKI: l3,
				GMemReqPerSec: res.GMemReqPerSec, ActiveCores: res.AvgActiveCores,
				MemLatencyNs: res.MemLatencyNs, OfferedBW: res.OfferedBW,
			}
			got, _ := json.Marshal(m)
			ref, _ := json.Marshal(want)
			if string(got) != string(ref) {
				t.Errorf("%s %s %s: staged\n %s\nunstaged\n %s", pass, m.App, m.Arch.Label(), got, ref)
			}
		}
	}
}

// TestConcurrentRunsRestoreOneCheckpoint: on one client's front, scratch and
// primed provider, two warm runs at once restore each application's one
// checkpoint at the same time and stream their halves from it: both return
// the reference bytes, and the front builds nothing (run under -race: a
// restore only reads the checkpoint).
func TestConcurrentRunsRestoreOneCheckpoint(t *testing.T) {
	ctx := context.Background()
	opts := windowTestOpts()
	n := len(opts.Apps) * len(opts.Points)
	want := datasetJSON(t, Run(ctx, opts), n)
	opts.Artifacts, opts.SampleWindows, opts.Scratch = newMapArtifacts(), NewSampleWindows(), node.NewScratch()
	Run(ctx, opts) // primes the tables and the checkpoints
	before := opts.SampleWindows.Stats()
	got := make([]string, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = datasetJSON(t, Run(ctx, opts), n)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("run %d differs from the reference", i)
		}
	}
	if st := opts.SampleWindows.Stats(); st.Generated != before.Generated || st.Front != before.Front+int64(len(got)*len(opts.Apps)) {
		t.Errorf("front %+v after the two runs, %+v before: want no checkpoint built and one request per run and application", st, before)
	}
}

// raceEnabled is set by race_test.go: allocation pins skip under -race,
// where sync.Pool deliberately drops a share of its Puts.
var raceEnabled bool

// TestWarmRunMaterialisesNoWindow: a warm run of LULESH at the benchmark's
// fidelity (120 000 sample after 700 000 warm-up micro-ops) over the three
// Table I widths, on a front, scratch and provider earlier runs primed,
// allocates under 0.25 MB (≈ 0.1 MB: spans, measurements, the replays'
// results) — less than one 256 KiB chunk buffer, against the 3.84 MB sample
// window it fuses — with its generator, two chunk buffers, fusers and
// halves drawn back from the scratch.
func TestWarmRunMaterialisesNoWindow(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-fidelity runs; allocation pins skip under -race")
	}
	var pts []ArchPoint
	first := Enumerate()[0]
	for _, p := range Enumerate() {
		q := p
		q.VectorBits = first.VectorBits
		if q == first {
			pts = append(pts, p)
		}
	}
	opts := Options{
		Apps: []*apps.Profile{apps.LULESH()}, Points: pts,
		SampleInstrs: 120000, WarmupInstrs: 700000, Seed: 1, Workers: 1,
		Replay:    ReplayConfig{Disable: true},
		Artifacts: newMapArtifacts(), SampleWindows: NewSampleWindows(), Scratch: node.NewScratch(),
	}
	ctx := context.Background()
	Run(ctx, opts)
	Run(ctx, opts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Run(ctx, opts)
	runtime.ReadMemStats(&after)
	const bound = 0.25e6
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) >= bound {
		t.Errorf("a warm run of %d points allocated %.3f MB, want under %.1f MB", len(pts), float64(got)/1e6, bound/1e6)
	} else {
		t.Logf("a warm run of %d points allocated %.3f MB (%d objects)", len(pts), float64(got)/1e6, after.Mallocs-before.Mallocs)
	}
}
