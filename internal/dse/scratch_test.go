package dse

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"musa/internal/apps"
	"musa/internal/obs"
)

// scratchTestOpts is a five-application sweep at test fidelity over six
// annotation groups per application: the three Table I caches of a 64-core
// node (a 1-core node's hierarchies are not kept between passes) at two
// widths.
func scratchTestOpts() Options {
	grid := Enumerate()
	first := grid[slices.IndexFunc(grid, func(p ArchPoint) bool { return p.Cores == 64 })]
	var pts []ArchPoint
	for _, p := range Enumerate() {
		q := p
		q.VectorBits, q.Cache = first.VectorBits, first.Cache
		if q == first && p.VectorBits != 256 {
			pts = append(pts, p)
		}
	}
	return Options{
		Apps: apps.All(), Points: pts,
		SampleInstrs: 20000, WarmupInstrs: 40000, Seed: 1, Workers: 2,
		Replay: ReplayConfig{Ranks: []int{4}},
	}
}

// scratchUse runs opts under a recorder and returns the dataset as JSON and
// the run span's scratch counts, kind -> [reused, all].
func scratchUse(t *testing.T, opts Options) (string, map[string][2]int) {
	t.Helper()
	rec := obs.NewRecorder(0)
	d := Run(obs.WithRecorder(context.Background(), rec), opts)
	use := map[string][2]int{}
	for _, s := range rec.Spans() {
		if s.Name != "dse.run" {
			continue
		}
		for _, a := range s.Attrs {
			if kind, ok := strings.CutPrefix(a.Key, "scratch."); ok {
				var n [2]int
				if _, err := fmt.Sscanf(a.Value, "%d/%d", &n[0], &n[1]); err != nil {
					t.Fatalf("%s = %q: %v", a.Key, a.Value, err)
				}
				use[kind] = n
			}
		}
	}
	return datasetJSON(t, d, len(opts.Apps)*len(opts.Points)), use
}

// TestFiveAppRunRecyclesAndMatchesPerAppRuns: a sweep over the five
// applications returns the bytes of five sweeps of one application each —
// with no artifacts, and again on a primed provider — although its later
// applications build on what the earlier ones left: without artifacts their
// windows, fused halves, chunk buffers and hierarchies come from the run's
// scratch; on the primed provider (no cold pass) their windows and halves do.
func TestFiveAppRunRecyclesAndMatchesPerAppRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("eleven sweeps of five applications")
	}
	opts := scratchTestOpts()
	art := newMapArtifacts()
	for _, primed := range []bool{false, true} {
		o := opts
		if primed {
			Run(context.Background(), Options{Apps: o.Apps, Points: o.Points, SampleInstrs: o.SampleInstrs,
				WarmupInstrs: o.WarmupInstrs, Seed: o.Seed, Workers: o.Workers, Replay: o.Replay, Artifacts: art})
			o.Artifacts = art
		}
		var want string
		byName := slices.SortedFunc(slices.Values(o.Apps), func(a, b *apps.Profile) int { return strings.Compare(a.Name, b.Name) })
		for _, app := range byName { // a dataset is sorted by application
			one := o
			one.Apps = []*apps.Profile{app}
			got, _ := scratchUse(t, one)
			want = joinJSON(want, got)
		}
		got, use := scratchUse(t, o)
		if got != want {
			t.Errorf("primed %v: the five-application sweep differs from five one-application sweeps", primed)
		}
		kinds := []string{"windows", "halves", "chunks", "hierarchies"}
		if primed {
			kinds = kinds[:2]
			if use["chunks"] != [2]int{} || use["hierarchies"] != [2]int{} {
				t.Errorf("primed: a cold pass ran: %v", use)
			}
		}
		for _, kind := range kinds {
			if n := use[kind]; n[0] == 0 || n[1] < len(o.Apps) {
				t.Errorf("primed %v: %s %d reused of %d: the later applications did not draw from the scratch", primed, kind, n[0], n[1])
			}
		}
		t.Logf("primed %v: scratch %v", primed, use)
	}
}

// joinJSON concatenates two JSON arrays of measurements.
func joinJSON(a, b string) string {
	if a == "" {
		return b
	}
	return a[:len(a)-1] + "," + b[1:]
}

// TestConcurrentRunsRecycleApart: two runs at once — sharing a client's
// window front and not — each recycle their own storage and return the
// reference bytes (run under -race to check that no column crosses runs).
func TestConcurrentRunsRecycleApart(t *testing.T) {
	opts := scratchTestOpts()
	opts.Apps = []*apps.Profile{apps.BTMZ(), apps.Hydro(), apps.SPMZ()}
	opts.Points = opts.Points[:4]
	want, _ := scratchUse(t, opts)
	for _, front := range []*SampleWindows{nil, NewSampleWindows()} {
		o := opts
		o.SampleWindows = front
		var wg sync.WaitGroup
		got := make([]string, 2)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = datasetJSON(t, Run(context.Background(), o), len(o.Apps)*len(o.Points))
			}()
		}
		wg.Wait()
		for i, g := range got {
			if g != want {
				t.Errorf("client front %v, run %d: dataset differs from the reference", front != nil, i)
			}
		}
	}
}
