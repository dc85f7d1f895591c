package dse_test

import (
	"context"
	"encoding/json"
	"testing"

	"musa/internal/apps"
	"musa/internal/dse"
	"musa/internal/obs"
	"musa/internal/store"
)

// warmHalfPoints returns six grid points differing only in cache
// configuration (all three) and vector width (two): six annotation groups,
// three per fused trace.
func warmHalfPoints() (all, oneCache []dse.ArchPoint) {
	first := dse.Enumerate()[0]
	for _, p := range dse.Enumerate() {
		q := p
		q.VectorBits, q.Cache = first.VectorBits, first.Cache
		if q != first || p.VectorBits == 256 {
			continue
		}
		all = append(all, p)
		if p.Cache == first.Cache {
			oneCache = append(oneCache, p)
		}
	}
	return all, oneCache
}

// tracedRun runs the sweep and reports its dataset as JSON, the stage
// observations it added and how many spans of each name it recorded.
func tracedRun(t *testing.T, points []dse.ArchPoint, art dse.ArtifactProvider) (string, map[string]uint64, map[string]int) {
	t.Helper()
	stages := []string{dse.StageFuse, dse.StageAnnotate}
	count := func(stage string) uint64 {
		return obs.DefaultRegistry().Histogram(dse.StageMetric, "", nil, obs.L("stage", stage)).Count()
	}
	before := map[string]uint64{}
	for _, s := range stages {
		before[s] = count(s)
	}
	rec := obs.NewRecorder(0)
	d := dse.Run(obs.WithRecorder(context.Background(), rec), dse.Options{
		Apps: []*apps.Profile{apps.BTMZ()}, Points: points,
		SampleInstrs: 20000, WarmupInstrs: 40000, Seed: 1, Workers: 2,
		Replay: dse.ReplayConfig{Ranks: []int{4}}, Artifacts: art,
	})
	if len(d.Measurements) != len(points) {
		t.Fatalf("%d measurements, want %d", len(d.Measurements), len(points))
	}
	b, err := json.Marshal(d.Measurements)
	if err != nil {
		t.Fatal(err)
	}
	built := map[string]uint64{}
	for _, s := range stages {
		built[s] = count(s) - before[s]
	}
	spans := map[string]int{}
	for _, s := range rec.Spans() {
		spans[s.Name]++
	}
	return string(b), built, spans
}

// TestMixedWarmColdRunFusesEachHalfOnce primes an artifact directory with the
// hit-rate tables of one of three cache configurations and then runs all
// three. The primed groups take the sample half straight to
// CombineAnnotation; the other two per width are built by the application's
// one cold pass, which streams the warm window through one cache walk per
// width. Either way the sample window is fused once per width, and the
// dataset is the cold run's byte for byte. Conversely, a run over the now
// fully primed directory never walks the caches.
func TestMixedWarmColdRunFusesEachHalfOnce(t *testing.T) {
	all, oneCache := warmHalfPoints()
	if len(all) != 6 || len(oneCache) != 2 {
		t.Fatalf("%d points, %d of one cache configuration; want 6 and 2", len(all), len(oneCache))
	}
	const widths = 2
	want, _, coldSpans := tracedRun(t, all, nil)
	if coldSpans["dse.cache-walk"] != widths || coldSpans["dse.scalar-trace"] != 1 {
		t.Errorf("cold run walked %d widths in %d passes, want %d in one", coldSpans["dse.cache-walk"],
			coldSpans["dse.scalar-trace"], widths)
	}

	art, err := store.OpenArtifacts(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tracedRun(t, oneCache, art)

	got, built, spans := tracedRun(t, all, art)
	if got != want {
		t.Error("mixed warm/cold dataset differs from the cold run's")
	}
	if built[dse.StageFuse] != widths {
		t.Errorf("mixed run observed %d fuses, want %d: the sample window is fused once per width, hit or miss",
			built[dse.StageFuse], widths)
	}
	if built[dse.StageAnnotate] != 2*widths {
		t.Errorf("mixed run walked the caches %d times, want %d (the two unprimed groups per width)",
			built[dse.StageAnnotate], 2*widths)
	}
	if spans["dse.fuse"] != widths || spans["dse.cache-walk"] != widths {
		t.Errorf("mixed run built %d sample halves and walked %d widths, want %d each",
			spans["dse.fuse"], spans["dse.cache-walk"], widths)
	}
	// The pass runs before the primed tables are checked against their
	// fused traces, so those find the traces it built: the generator runs
	// once for the application.
	if n := spans["dse.scalar-trace"]; n != 1 {
		t.Errorf("mixed run generated %d scalar windows, want 1 (the cold pass's)", n)
	}

	got, built, spans = tracedRun(t, all, art)
	if got != want {
		t.Error("fully primed dataset differs from the cold run's")
	}
	if built[dse.StageFuse] != widths || built[dse.StageAnnotate] != 0 {
		t.Errorf("fully primed run observed %d fuses and %d cache walks, want %d and 0",
			built[dse.StageFuse], built[dse.StageAnnotate], widths)
	}
	if spans["dse.cache-walk"] != 0 {
		t.Errorf("fully primed run walked the caches %d times, want none", spans["dse.cache-walk"])
	}
}
