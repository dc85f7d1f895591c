package dse

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"musa/internal/apps"
	"musa/internal/node"
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
// fused halves, level columns, generators, chunk buffers and hierarchies
// come from the run's scratch; on the primed provider (no cold pass) their
// halves, generators and chunk buffers do.
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
		kinds := []string{"halves", "streams", "chunks", "tables", "hierarchies"}
		if primed {
			kinds = kinds[:3]
			if use["tables"] != [2]int{} || use["hierarchies"] != [2]int{} {
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
// checkpoint front and not, sharing a client's scratch and not — each return the
// reference bytes (run under -race to check that no column one run released
// is read again, whichever run took it). On a shared scratch the pair runs
// twice, so the second pair draws what the first left.
func TestConcurrentRunsRecycleApart(t *testing.T) {
	opts := scratchTestOpts()
	opts.Apps = []*apps.Profile{apps.BTMZ(), apps.Hydro(), apps.SPMZ()}
	opts.Points = opts.Points[:4]
	want, _ := scratchUse(t, opts)
	for _, c := range []struct {
		front   *SampleWindows
		scratch *node.Scratch
	}{{nil, nil}, {NewSampleWindows(), nil}, {nil, node.NewScratch()}, {NewSampleWindows(), node.NewScratch()}} {
		o := opts
		o.SampleWindows, o.Scratch = c.front, c.scratch
		pairs := 1
		if c.scratch != nil {
			pairs = 2
		}
		for pair := range pairs {
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
					t.Errorf("client front %v, client scratch %v, pair %d, run %d: dataset differs from the reference",
						c.front != nil, c.scratch != nil, pair, i)
				}
			}
		}
		if c.scratch != nil && c.scratch.Stats() != (node.ScratchStats{}) {
			t.Errorf("the runs counted their draws on the client's scratch: %+v", c.scratch.Stats())
		}
	}
}

// TestClientScratchOutlivesTheRun: runs on one client's scratch, checkpoint
// front and artifact provider, one worker each — a one-point run without the
// provider, then the five applications cold, warm and warm again. After
// every run the scratch holds its generator and chunk buffers and is within
// its byte bound. It keeps a hierarchy set only when a pass drew it back
// during the run: the one-point run leaves none, the cold run keeps the two
// widths' sets its later applications reused, and a warm run, which runs no
// pass, lets them go. The second warm run fuses every half from the front's
// checkpoints, through the generator and chunk buffers an earlier run left,
// and compiles its op column on storage an earlier run left too
// (scratch.halves, scratch.streams, scratch.chunks and scratch.ops read
// n/n), and the five-application runs' bytes are the reference's.
func TestClientScratchOutlivesTheRun(t *testing.T) {
	opts := scratchTestOpts()
	opts.Workers = 1
	want, _ := scratchUse(t, opts)
	o := opts
	o.Artifacts, o.SampleWindows, o.Scratch = newMapArtifacts(), NewSampleWindows(), node.NewScratch()
	one := o
	one.Apps, one.Points, one.Artifacts = o.Apps[:1], o.Points[:1], nil
	var use map[string][2]int
	for run, c := range []struct {
		kind        string
		opts        Options
		hierarchies int
	}{{"one-point", one, 0}, {"cold", o, 2}, {"warm", o, 0}, {"warm", o, 0}} {
		var got string
		got, use = scratchUse(t, c.opts)
		if c.opts.Artifacts != nil && got != want {
			t.Errorf("%s run %d: dataset differs from the reference", c.kind, run)
		}
		held := o.Scratch.Held()
		if held[node.ScratchStreams].Values != 1 || held[node.ScratchChunks].Values != 2 ||
			held[node.ScratchHierarchies].Values != c.hierarchies || held.Bytes() > node.MaxScratchKeepBytes {
			t.Errorf("%s run %d: the scratch holds %+v after the run, want one generator, two chunk buffers and %d hierarchy sets",
				c.kind, run, held, c.hierarchies)
		}
		if n := use["held_bytes"]; int64(n[0]) != held.Bytes() || n[1] != node.MaxScratchKeepBytes {
			t.Errorf("%s run %d: scratch.held_bytes %v, the scratch holds %d of %d", c.kind, run, n, held.Bytes(), node.MaxScratchKeepBytes)
		}
		t.Logf("%s run %d: scratch %v, holds %+v", c.kind, run, use, held)
	}
	for _, kind := range []string{"halves", "streams", "chunks", "ops"} {
		if n := use[kind]; n[1] == 0 || n[0] != n[1] {
			t.Errorf("second warm run: %s %d reused of %d, want all", kind, n[0], n[1])
		}
	}
	if use["tables"] != [2]int{} || use["hierarchies"] != [2]int{} {
		t.Errorf("second warm run: ran a cold pass: %v", use)
	}
}
