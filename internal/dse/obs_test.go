package dse

import (
	"context"
	"testing"

	"musa/internal/apps"
	"musa/internal/node"
	"musa/internal/obs"
)

// fixedPointTotals reads the default registry's timing-replay counter and
// the sum of its fixed-point iteration histogram.
func fixedPointTotals() (replays, iterations float64) {
	for _, f := range obs.DefaultRegistry().Snapshot() {
		if len(f.Series) != 1 {
			continue
		}
		switch f.Name {
		case ReplaysMetric:
			replays = f.Series[0].Value
		case IterationsMetric:
			iterations = f.Series[0].Value
		}
	}
	return replays, iterations
}

// TestReplayCounterCountsTimingReplays runs a reduced sweep and pins the
// replay counter to the timing replays its points ran: the runner simulates
// each annotation group's points on one annotation and memo, so the sweep
// runs as many RunTiming calls as the same points simulated group by group
// here (node.Result.Replays, pinned to the calls by node's
// TestReplaysCountRunTimingCalls; a group's total does not depend on the
// order of its points), and no more than its fixed points iterated.
func TestReplayCounterCountsTimingReplays(t *testing.T) {
	opts := testOpts()
	opts.Apps = []*apps.Profile{apps.LULESH()}
	opts.Points = opts.Points[:8] // four annotation groups (two widths, two caches), two channel counts each
	opts.Replay.Disable = true
	replays0, iterations0 := fixedPointTotals()
	if got := Run(context.Background(), opts); len(got.Measurements) != len(opts.Points) {
		t.Fatalf("%d measurements, want %d", len(got.Measurements), len(opts.Points))
	}
	replays1, iterations1 := fixedPointTotals()
	replays, iterations := replays1-replays0, iterations1-iterations0

	app := opts.Apps[0]
	groups := map[AnnGroup]*node.Annotation{}
	want := 0
	for _, p := range opts.Points {
		cfg := p.NodeConfig(opts.SampleInstrs, opts.WarmupInstrs, opts.Seed)
		ann, ok := groups[p.AnnGroup()]
		if !ok {
			a := node.BuildAnnotation(app, cfg)
			a.Memo = node.NewTimingMemo()
			ann = &a
			groups[p.AnnGroup()] = ann
		}
		want += node.SimulateAnnotated(app, cfg, *ann).Replays
	}
	if len(groups) < 2 || want == 0 {
		t.Fatalf("%d annotation groups, %d replays: the sweep exercises nothing", len(groups), want)
	}
	if replays != float64(want) {
		t.Errorf("%s grew by %v over the sweep, its points ran %d timing replays", ReplaysMetric, replays, want)
	}
	if replays > iterations {
		t.Errorf("%v timing replays in %v fixed-point iterations", replays, iterations)
	}
}
