package musa_test

import (
	"context"
	"sync"
	"testing"

	"musa"
	"musa/internal/apps"
	"musa/internal/dram"
	"musa/internal/dse"
	"musa/internal/node"
	"musa/internal/obs"
	"musa/internal/trace"
)

// stageDeltas snapshots the observation counts of every dse pipeline stage
// and returns a function that reports how many observations each stage
// gained since the snapshot. Stage observations fire only on real builds —
// run-front, artifact-cache and ring-peer hits leave them untouched — so
// the deltas count exactly the sub-results that were computed.
func stageDeltas() func() map[string]uint64 {
	stages := []string{
		dse.StageFuse, dse.StageAnnotate, dse.StageLatencyFit,
		dse.StageBurstSynthesis, dse.StageNodeSim, dse.StageReplay,
	}
	before := map[string]uint64{}
	for _, s := range stages {
		before[s] = stageObservations(s)
	}
	return func() map[string]uint64 {
		d := map[string]uint64{}
		for _, s := range stages {
			d[s] = stageObservations(s) - before[s]
		}
		return d
	}
}

// iterationObservations reads the fixed-point iteration histogram: how many
// points it has seen and the iterations they took in total.
func iterationObservations() (points uint64, iterations float64) {
	for _, f := range obs.DefaultRegistry().Snapshot() {
		if f.Name == dse.IterationsMetric && len(f.Series) == 1 {
			return f.Series[0].Count, f.Series[0].Value
		}
	}
	return 0, 0
}

// TestWarmStagedSweepStageAccounting is the staged sub-result contract seen
// through the stage histogram: a warm run over a primed artifact cache must
// re-derive every measurement without a single cache walk (annotate), DRAM
// curve fit (latency-fit) or burst synthesis — only the run-local fused
// traces, which are deliberately never persisted, are rebuilt, once per
// distinct (application, vector width).
func TestWarmStagedSweepStageAccounting(t *testing.T) {
	artDir := t.TempDir()
	exp := artifactTestExperiment()
	ctx := context.Background()

	vecs := map[int]bool{}
	for _, i := range exp.PointIndices {
		a, err := musa.PointArch(i)
		if err != nil {
			t.Fatal(err)
		}
		vecs[a.VectorBits] = true
	}

	prime, err := musa.NewClient(musa.ClientOptions{CacheDir: t.TempDir(), ArtifactCache: artDir})
	if err != nil {
		t.Fatal(err)
	}
	coldDelta := stageDeltas()
	if _, err := prime.Run(ctx, exp); err != nil {
		t.Fatal(err)
	}
	cold := coldDelta()
	if err := prime.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{dse.StageAnnotate, dse.StageLatencyFit, dse.StageBurstSynthesis} {
		if cold[s] == 0 {
			t.Fatalf("cold run built no %s sub-results: %v", s, cold)
		}
	}

	warm, err := musa.NewClient(musa.ClientOptions{CacheDir: t.TempDir(), ArtifactCache: artDir})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	warmDelta := stageDeltas()
	pointsBefore, itersBefore := iterationObservations()
	res, err := warm.Run(ctx, exp)
	if err != nil {
		t.Fatal(err)
	}
	got := warmDelta()
	points, iters := iterationObservations()
	points, iters = points-pointsBefore, iters-itersBefore
	if len(res.Sweep.Measurements) != len(exp.PointIndices) {
		t.Fatalf("%d measurements, want %d", len(res.Sweep.Measurements), len(exp.PointIndices))
	}
	if got[dse.StageAnnotate] != 0 {
		t.Errorf("warm run walked the caches %d times, want 0 (hit-rate tables are staged)", got[dse.StageAnnotate])
	}
	if got[dse.StageLatencyFit] != 0 {
		t.Errorf("warm run fitted %d DRAM curves, want 0 (latency models are staged)", got[dse.StageLatencyFit])
	}
	if got[dse.StageBurstSynthesis] != 0 {
		t.Errorf("warm run synthesized %d burst traces, want 0 (bursts are staged)", got[dse.StageBurstSynthesis])
	}
	if want := uint64(len(vecs)); got[dse.StageFuse] != want {
		t.Errorf("warm run built %d fused traces, want %d (run-local, one per distinct vector width)",
			got[dse.StageFuse], want)
	}
	if got[dse.StageNodeSim] != uint64(len(exp.PointIndices)) {
		t.Errorf("warm run simulated %d points, want %d (measurements are re-derived, not replayed from the store)",
			got[dse.StageNodeSim], len(exp.PointIndices))
	}
	// Every simulated point reports its fixed-point iterations, one to six.
	if points != got[dse.StageNodeSim] {
		t.Errorf("%s saw %d points, the node-sim stage %d", dse.IterationsMetric, points, got[dse.StageNodeSim])
	}
	if iters < float64(points) || iters > 6*float64(points) {
		t.Errorf("%v fixed-point iterations over %d points, want one to six each", iters, points)
	}
}

// putCounter is an artifact provider that holds nothing and counts every
// hit-rate table put to it, per key.
type putCounter struct {
	mu   sync.Mutex
	puts map[string]int
}

func (c *putCounter) HitRates(string) (node.HitRateTable, bool) { return node.HitRateTable{}, false }
func (c *putCounter) PutHitRates(key string, _ node.HitRateTable) {
	c.mu.Lock()
	c.puts[key]++
	c.mu.Unlock()
}
func (c *putCounter) LatencyModel(string) (dram.LatencyModel, bool) {
	return dram.LatencyModel{}, false
}
func (c *putCounter) PutLatencyModel(string, dram.LatencyModel) {}
func (c *putCounter) Burst(string) (*trace.Burst, bool)         { return nil, false }
func (c *putCounter) PutBurst(string, *trace.Burst)             {}

// TestFullGridStageAccounting runs the complete 864-point Table I grid for
// one application at test fidelity and asserts each staged sub-result is
// computed exactly once per distinct stage key: fused traces once per
// vector width (3), hit-rate tables once per (cores, vector width, cache
// configuration) group (3*3*3 = 27) by one cache walk per vector width (3),
// DRAM latency curves once per (channels, memory kind) (2*1 = 2) — while the
// node simulation itself runs once per point. Every table is put to the
// provider once. This is the sharing contract of DESIGN.md §15: 864 points,
// 3 fuses, 3 walks, 27 tables and 2 curves.
func TestFullGridStageAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("full 864-point grid")
	}
	delta := stageDeltas()
	rec := obs.NewRecorder(1 << 15)
	provider := &putCounter{puts: map[string]int{}}
	d := dse.Run(obs.WithRecorder(context.Background(), rec), dse.Options{
		Apps:         []*apps.Profile{apps.LULESH()},
		SampleInstrs: 20000,
		WarmupInstrs: 40000,
		Seed:         1,
		Replay:       dse.ReplayConfig{Disable: true},
		Artifacts:    provider,
	})
	got := delta()
	if len(d.Measurements) != 864 {
		t.Fatalf("%d measurements, want 864", len(d.Measurements))
	}
	want := map[string]uint64{
		dse.StageFuse:           3,
		dse.StageAnnotate:       27,
		dse.StageLatencyFit:     2,
		dse.StageBurstSynthesis: 0,
		dse.StageNodeSim:        864,
		dse.StageReplay:         0,
	}
	for s, w := range want {
		if got[s] != w {
			t.Errorf("stage %s: %d observations, want %d", s, got[s], w)
		}
	}
	walks := 0
	for _, s := range rec.Spans() {
		if s.Name == "dse.cache-walk" {
			walks++
		}
	}
	if walks != 3 {
		t.Errorf("%d cache walks, want 3 (one per vector width, each building nine tables)", walks)
	}
	if len(provider.puts) != 27 {
		t.Errorf("%d distinct hit-rate tables put, want 27", len(provider.puts))
	}
	for key, n := range provider.puts {
		if n != 1 {
			t.Errorf("hit-rate table %s put %d times, want once", key[:12], n)
		}
	}
}
