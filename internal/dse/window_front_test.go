package dse

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"musa/internal/apps"
	"musa/internal/dram"
	"musa/internal/isa"
	"musa/internal/node"
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

// TestSampleWindowFrontEvictsAndRebuilds gives a shared front room for one
// window fewer than a warm run over two applications needs. The first
// application's window is evicted when the second's is measured, so every run
// generates both again — and every dataset is still the reference's, byte for
// byte: eviction trades time, never bytes. One worker makes the count exact:
// with two, a worker still fusing the first application's last width when the
// other has moved on may find its window evicted and generate it once more.
func TestSampleWindowFrontEvictsAndRebuilds(t *testing.T) {
	ctx := context.Background()
	opts := windowTestOpts()
	opts.Workers = 1
	n := len(opts.Apps) * len(opts.Points)
	want := datasetJSON(t, Run(ctx, opts), n)

	opts.Artifacts = newMapArtifacts()
	Run(ctx, opts) // primes the hit-rate tables: later runs ask for sample windows only

	const windowBytes = 20000 * 32
	w := newSampleWindows(0, 2*windowBytes-1)
	opts.SampleWindows = w
	for run := 1; run <= 2; run++ {
		if got := datasetJSON(t, Run(ctx, opts), n); got != want {
			t.Errorf("run %d on the undersized front differs from the reference", run)
		}
		st := w.Stats()
		if st.Generated != int64(2*run) {
			t.Errorf("after run %d: %d windows generated, want %d (both applications, every run)", run, st.Generated, 2*run)
		}
		if st.ResidentBytes != windowBytes {
			t.Errorf("after run %d: %d bytes resident, want one window of %d", run, st.ResidentBytes, windowBytes)
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
	if st := w.Stats(); st.Generated != 2 || st.ResidentBytes != 2*windowBytes || st.Front == 0 {
		t.Errorf("roomy front after two runs: %+v, want 2 generated, %d bytes, front hits", st, 2*windowBytes)
	}
}

// TestSampleWindowTooLargeIsNotRetained: a window bigger than the whole bound
// is handed to its run and dropped, leaving the front as it was.
func TestSampleWindowTooLargeIsNotRetained(t *testing.T) {
	w := newSampleWindows(0, 1000)
	small := node.ScalarTrace{Instrs: make([]isa.Instr, 10)}
	w.get(sampleWindowKey{app: "small"}, func() node.ScalarTrace { return small })
	big := w.get(sampleWindowKey{app: "big"}, func() node.ScalarTrace {
		return node.ScalarTrace{Instrs: make([]isa.Instr, 100)}
	})
	if len(big.Instrs) != 100 {
		t.Fatalf("oversized window came back with %d instructions", len(big.Instrs))
	}
	if st := w.Stats(); st.ResidentBytes != 0 || st.Generated != 2 {
		// FIFO: making room for the oversized window evicts the older one
		// first, then the oversized window itself.
		t.Errorf("after an oversized window: %+v, want nothing resident and 2 generated", st)
	}
}

// TestUnstagedMatchesStaged runs a handful of points through node.Simulate —
// one call, nothing shared, no artifact, no front, no timing memo — and
// through the staged runner, cold and warm, and compares every field a
// measurement takes from the node result.
func TestUnstagedMatchesStaged(t *testing.T) {
	grid := Enumerate()
	opts := Options{
		Apps:         []*apps.Profile{apps.LULESH(), apps.SPMZ()},
		Points:       []ArchPoint{grid[0], grid[1], grid[100], grid[431], grid[863]},
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
