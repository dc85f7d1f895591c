package musa_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"testing"

	"musa"
)

// optimizeReference is the testdata/optimize_reference.json fixture: the
// reference search experiment, the exhaustive grid's known optimum over
// the same candidates, and the cost bound the search must stay under. The
// CI optimizer smoke pins the same fixture over HTTP.
type optimizeReference struct {
	Experiment   json.RawMessage `json:"experiment"`
	ExpectedBest int             `json:"expectedBestPoint"`
	MaxCostRatio float64         `json:"maxCostRatio"`
}

func loadOptimizeReference(t testing.TB) (musa.Experiment, optimizeReference) {
	t.Helper()
	raw, err := os.ReadFile("testdata/optimize_reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref optimizeReference
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	var e musa.Experiment
	if err := json.Unmarshal(ref.Experiment, &e); err != nil {
		t.Fatal(err)
	}
	return e, ref
}

// gridEDPOptimum sweeps the candidates exhaustively at the experiment's
// own fidelity and returns the point index minimizing EDP (ties break on
// the lower index), plus how many measurements came from the store.
func gridEDPOptimum(t testing.TB, client *musa.Client, exp musa.Experiment) (best, cached int) {
	t.Helper()
	sweep := musa.Experiment{
		Kind: musa.KindSweep, Apps: []string{exp.App},
		PointIndices: slices.Clone(exp.PointIndices),
		Sample:       exp.Sample, Warmup: exp.Warmup, Seed: exp.Seed,
		NoReplay: exp.NoReplay,
	}
	res, err := client.RunStream(context.Background(), sweep, musa.Observer{
		Progress: func(d, total, c int) { cached = c },
	})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := make(map[string]int, len(exp.PointIndices))
	for _, i := range exp.PointIndices {
		label, err := musa.PointLabel(i)
		if err != nil {
			t.Fatal(err)
		}
		byLabel[label] = i
	}
	best, bestEDP := -1, math.Inf(1)
	for _, m := range res.Sweep.Measurements {
		idx, ok := byLabel[m.Arch.Label()]
		if !ok {
			t.Fatalf("sweep returned configuration outside the candidate set: %s", m.Arch.Label())
		}
		edp := m.EnergyJ * m.TimeNs * 1e-9
		if edp < bestEDP || (edp == bestEDP && idx < best) {
			best, bestEDP = idx, edp
		}
	}
	return best, cached
}

// TestOptimizeFindsGridOptimum is the tentpole acceptance test: the
// successive-halving search recovers the exhaustive grid's EDP optimum on
// the reference case at a fraction of the grid's simulation cost, its
// result is byte-deterministic, and a cache-warm repeat simulates nothing.
func TestOptimizeFindsGridOptimum(t *testing.T) {
	exp, ref := loadOptimizeReference(t)
	client, err := musa.NewClient(musa.ClientOptions{CacheDir: t.TempDir(), SweepWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	res1, err := client.Run(ctx, exp)
	if err != nil {
		t.Fatal(err)
	}
	o1 := res1.Optimize
	if o1 == nil || o1.Best == nil {
		t.Fatalf("optimize result incomplete: %+v", o1)
	}
	if o1.CostRatio > ref.MaxCostRatio {
		t.Fatalf("search cost ratio %.3f exceeds the %.2f bound (probed %d of %d grid instrs)",
			o1.CostRatio, ref.MaxCostRatio, o1.ProbeCostInstrs, o1.GridCostInstrs)
	}
	if len(o1.Rungs) < 2 {
		t.Fatalf("reference case ran %d rungs; multi-fidelity search needs at least 2", len(o1.Rungs))
	}

	// The exhaustive grid over the same candidates names the same winner.
	gridBest, cached := gridEDPOptimum(t, client, exp)
	if gridBest != o1.Best.PointIndex {
		t.Fatalf("optimizer recommends #%d, exhaustive grid optimum is #%d", o1.Best.PointIndex, gridBest)
	}
	if ref.ExpectedBest != gridBest {
		t.Fatalf("fixture expectedBestPoint = %d, grid optimum is %d (update the fixture)",
			ref.ExpectedBest, gridBest)
	}
	// Final-rung store-key identity: the grid sweep must reuse the full-
	// fidelity finalist measurements the search already checkpointed.
	if cached < exp.Optimize.Finalists {
		t.Fatalf("grid sweep reused %d stored measurements, want >= %d finalists",
			cached, exp.Optimize.Finalists)
	}

	// A warm repeat is a pure cache read and returns identical bytes.
	simBefore := client.Stats().Simulated
	res2, err := client.Run(ctx, exp)
	if err != nil {
		t.Fatal(err)
	}
	if d := client.Stats().Simulated - simBefore; d != 0 {
		t.Fatalf("warm optimize re-run simulated %d new measurements, want 0", d)
	}
	j1, err := json.Marshal(o1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(res2.Optimize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("optimize result not byte-stable across runs:\ncold %s\nwarm %s", j1, j2)
	}
}

// TestOptimizePowerCap pins the constrained search: a power cap excludes
// the unconstrained winner, every frontier point satisfies the cap, and an
// impossible cap is reported as Infeasible rather than silently ignored.
func TestOptimizePowerCap(t *testing.T) {
	exp, _ := loadOptimizeReference(t)
	client, err := musa.NewClient(musa.ClientOptions{CacheDir: t.TempDir(), SweepWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	res, err := client.Run(ctx, exp)
	if err != nil {
		t.Fatal(err)
	}
	uncapped := res.Optimize.Best

	capped := exp
	spec := *exp.Optimize
	// Cap just below the unconstrained winner's power draw: the search must
	// recommend something else that fits.
	spec.MaxPowerW = uncapped.PowerW * 0.99
	capped.Optimize = &spec
	cres, err := client.Run(ctx, capped)
	if err != nil {
		t.Fatal(err)
	}
	co := cres.Optimize
	if co.Infeasible {
		// At least some candidate should draw less than the near-optimum cap;
		// if not the model collapsed all power values onto one point.
		t.Fatalf("cap %.2f W marked infeasible; frontier %+v", spec.MaxPowerW, co.Frontier)
	}
	if co.Best.PointIndex == uncapped.PointIndex {
		t.Fatalf("capped search still recommends #%d, which exceeds the cap", uncapped.PointIndex)
	}
	for _, fp := range co.Frontier {
		if !fp.Feasible || fp.PowerW > spec.MaxPowerW {
			t.Fatalf("frontier point #%d (%.2f W) violates the %.2f W cap", fp.PointIndex, fp.PowerW, spec.MaxPowerW)
		}
	}

	impossible := exp
	ispec := *exp.Optimize
	ispec.MaxPowerW = 0.001
	impossible.Optimize = &ispec
	ires, err := client.Run(ctx, impossible)
	if err != nil {
		t.Fatal(err)
	}
	if !ires.Optimize.Infeasible {
		t.Fatal("0.001 W cap not reported Infeasible")
	}
	if len(ires.Optimize.Frontier) == 0 || ires.Optimize.Best == nil {
		t.Fatal("infeasible search returned no fallback frontier")
	}
}

// TestOptimizeValidation pins the typed validation errors of the nested
// spec: bad values fail fast with ErrBadOptimize before anything runs, and
// non-optimize kinds reject a stray Optimize spec.
func TestOptimizeValidation(t *testing.T) {
	bad := []musa.Experiment{
		{Kind: musa.KindOptimize, App: "btmz", Optimize: &musa.OptimizeSpec{Eta: 1}},
		{Kind: musa.KindOptimize, App: "btmz", Optimize: &musa.OptimizeSpec{Eta: 9}},
		{Kind: musa.KindOptimize, App: "btmz", Optimize: &musa.OptimizeSpec{Rungs: 9}},
		{Kind: musa.KindOptimize, App: "btmz", Optimize: &musa.OptimizeSpec{Finalists: 65}},
		{Kind: musa.KindOptimize, App: "btmz", Optimize: &musa.OptimizeSpec{MaxPowerW: -1}},
		{Kind: musa.KindOptimize, App: "btmz", Optimize: &musa.OptimizeSpec{MinSample: -5}},
		{Kind: musa.KindOptimize, App: "btmz", Optimize: &musa.OptimizeSpec{Objectives: []string{"latency"}}},
	}
	for _, e := range bad {
		if err := e.Validate(); !errors.Is(err, musa.ErrBadOptimize) {
			t.Fatalf("experiment %+v validated with err=%v, want ErrBadOptimize", e, err)
		}
	}
	// A bare optimize experiment is valid: every spec field defaults.
	ok := musa.Experiment{Kind: musa.KindOptimize, App: "btmz"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("defaulted optimize experiment rejected: %v", err)
	}
	// Optimize specs belong to optimize experiments only.
	stray := musa.Experiment{Kind: musa.KindSweep, Optimize: &musa.OptimizeSpec{}}
	if err := stray.Validate(); !errors.Is(err, musa.ErrExperiment) {
		t.Fatalf("sweep with an Optimize spec validated: %v", err)
	}
}

// TestSnapshotCoherence pins Client.Snapshot against the facets it
// aggregates.
func TestSnapshotCoherence(t *testing.T) {
	dir := t.TempDir()
	client, err := musa.NewClient(musa.ClientOptions{CacheDir: dir, MaxJobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	snap := client.Snapshot()
	if !snap.Store.Enabled || snap.Store.ReadOnly || snap.Store.Len != 0 {
		t.Fatalf("store snapshot: %+v", snap.Store)
	}
	if snap.Store.Dir != dir {
		t.Fatalf("store dir = %q, want %q", snap.Store.Dir, dir)
	}
	if snap.Store.MemtableBytes <= 0 || snap.Store.BlockCacheBytes <= 0 {
		t.Fatalf("engine sizing not default-resolved: %+v", snap.Store)
	}
	if snap.Jobs.Max != 3 || snap.Jobs.InFlight != 0 {
		t.Fatalf("jobs snapshot: %+v", snap.Jobs)
	}
	if !snap.Artifacts.Enabled || snap.Artifacts.Err != "" {
		t.Fatalf("artifacts snapshot: %+v", snap.Artifacts)
	}
	if snap.Replay.Disabled || snap.Replay.Network != "mn4" || len(snap.Replay.Ranks) == 0 {
		t.Fatalf("replay snapshot: %+v", snap.Replay)
	}

	// One node run moves the aggregate counters.
	idx := 0
	if _, err := client.Run(context.Background(), musa.Experiment{
		App: "btmz", PointIndex: &idx, Sample: 2000, NoReplay: true,
	}); err != nil {
		t.Fatal(err)
	}
	snap = client.Snapshot()
	if snap.Stats.Requests != 1 || snap.Stats.Simulated != 1 {
		t.Fatalf("stats after one run: %+v", snap.Stats)
	}
	if snap.Store.Len != 1 {
		t.Fatalf("store len after one run = %d", snap.Store.Len)
	}

	// Snapshot marshals as one JSON document (the /stats building block).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
}

// BenchmarkOptimizeReference times the reference successive-halving search
// cold (fresh store and artifact cache every iteration) and reports the
// probe-cost ratio as a custom metric. It is a reading: the ratio's budget
// is asserted by TestOptimizeFindsGridOptimum.
func BenchmarkOptimizeReference(b *testing.B) {
	exp, _ := loadOptimizeReference(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		client, err := musa.NewClient(musa.ClientOptions{CacheDir: b.TempDir(), SweepWorkers: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := client.Run(context.Background(), exp)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if res.Optimize == nil || res.Optimize.Best == nil {
			b.Fatal("optimize returned no recommendation")
		}
		b.ReportMetric(res.Optimize.CostRatio, "probe-cost-ratio")
		client.Close()
		b.StartTimer()
	}
}
