package musa

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"musa/internal/apps"
	"musa/internal/dse"
)

func TestNewClientRejectsBadWorkerURLs(t *testing.T) {
	for _, bad := range []string{"", "not a url", "ftp://host:1", "http://"} {
		_, err := NewClient(ClientOptions{Workers: []string{bad}})
		if err == nil {
			t.Errorf("NewClient accepted worker URL %q", bad)
		}
	}
	c, err := NewClient(ClientOptions{Workers: []string{"http://h1:8080/", "https://h2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := []string{"http://h1:8080", "https://h2"}
	if !reflect.DeepEqual(c.fleet.bases, want) {
		t.Fatalf("normalized bases = %v, want %v", c.fleet.bases, want)
	}
	if c.fleet.timeout != defaultShardTimeout {
		t.Fatalf("default shard timeout = %v", c.fleet.timeout)
	}
}

// TestPlanShardsPartition checks the shard planner's contract: every
// remaining (app, index) unit lands in exactly one shard, shards are grouped
// by annotation signature (cores, vector width, cache, memory kind), and
// the plan is deterministic.
func TestPlanShardsPartition(t *testing.T) {
	apps := []string{"btmz", "lulesh"}
	remaining := map[string][]int{}
	for _, app := range apps {
		for i := 0; i < PointCount(); i++ {
			remaining[app] = append(remaining[app], i)
		}
	}
	keyOf := func(app string, i int) string { return app + "/" + pointLabelMust(i) }

	shards := planShards(apps, remaining, keyOf)

	seen := map[string]map[int]bool{}
	for _, j := range shards {
		if len(j.indices) == 0 {
			t.Fatal("empty shard")
		}
		sig := func(i int) dse.AnnGroup {
			return tableIGrid()[i].AnnGroup()
		}
		want := sig(j.indices[0])
		for _, i := range j.indices {
			if sig(i) != want {
				t.Fatalf("shard mixes annotation groups: %v vs %v", sig(i), want)
			}
			if seen[j.app] == nil {
				seen[j.app] = map[int]bool{}
			}
			if seen[j.app][i] {
				t.Fatalf("point (%s, %d) planned twice", j.app, i)
			}
			seen[j.app][i] = true
		}
		if len(j.keys) != len(j.indices) {
			t.Fatalf("shard has %d keys for %d indices", len(j.keys), len(j.indices))
		}
	}
	for _, app := range apps {
		if len(seen[app]) != PointCount() {
			t.Fatalf("%s: planned %d of %d points", app, len(seen[app]), PointCount())
		}
	}
	// The Table I grid sweeps 3 core counts x 3 vector widths x 3 cache
	// configurations on DDR4: 27 annotation groups per application.
	if len(shards) != 27*len(apps) {
		t.Fatalf("%d shards, want %d", len(shards), 27*len(apps))
	}

	again := planShards(apps, remaining, keyOf)
	if len(again) != len(shards) {
		t.Fatalf("plan not deterministic: %d vs %d shards", len(again), len(shards))
	}
	for i := range shards {
		if shards[i].app != again[i].app || !reflect.DeepEqual(shards[i].indices, again[i].indices) {
			t.Fatalf("plan not deterministic at shard %d", i)
		}
	}
}

// pointLabelMust is a test helper: PointLabel or panic.
func pointLabelMust(i int) string {
	l, err := PointLabel(i)
	if err != nil {
		panic(err)
	}
	return l
}

func TestValidateShardReply(t *testing.T) {
	remaining := map[string][]int{"btmz": {0, 1}}
	shards := planShards([]string{"btmz"}, remaining, func(string, int) string { return "k" })
	if len(shards) != 1 {
		t.Fatalf("%d shards", len(shards))
	}
	j := shards[0]
	grid := tableIGrid()
	good := []Measurement{
		{App: "btmz", Arch: grid[0]},
		{App: "btmz", Arch: grid[1]},
	}
	if err := j.validateShardReply(good); err != nil {
		t.Fatalf("valid reply rejected: %v", err)
	}
	cases := map[string][]Measurement{
		"short":     {good[0]},
		"stray app": {good[0], {App: "hydro", Arch: grid[1]}},
		"stray pt":  {good[0], {App: "btmz", Arch: grid[5]}},
		"duplicate": {good[0], good[0]},
	}
	for name, ms := range cases {
		if err := j.validateShardReply(ms); err == nil {
			t.Errorf("%s reply accepted", name)
		}
	}
}

func TestShardExperimentCarriesNormalizedFields(t *testing.T) {
	ne, err := Experiment{
		Kind: KindSweep, Apps: []string{"btmz"},
		Sample: 20000, Warmup: 40000, ReplayRanks: []int{4},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	j := &shardJob{app: "btmz", indices: []int{3, 4}}
	sub := shardExperiment(ne, j)
	if sub.Seed != 1 || sub.Network != "mn4" || len(sub.ReplayRanks) != 1 {
		t.Fatalf("shard experiment lost normalized defaults: %+v", sub)
	}
	if _, err := sub.Normalize(); err != nil {
		t.Fatalf("shard experiment does not validate: %v", err)
	}
	// The shard's node keys must match the coordinator's: same fidelity,
	// seed and replay fields means nodeKey agrees for every point.
	grid := tableIGrid()
	if nodeKey(sub, "btmz", nil, archOfPoint(grid[3])) !=
		nodeKey(ne, "btmz", nil, archOfPoint(grid[3])) {
		t.Fatal("shard and coordinator node keys diverge")
	}

	// Implicit fidelity must be materialized to the package defaults on the
	// wire: otherwise a worker's own -sample/-warmup defaults would skew
	// shard measurements away from what the coordinator and the local pool
	// compute (and poison the coordinator's store).
	ne2, err := Experiment{Kind: KindSweep, Apps: []string{"btmz"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	sub2 := shardExperiment(ne2, j)
	if sub2.Sample != apps.SampleSize || sub2.Warmup != 2*apps.SampleSize {
		t.Fatalf("implicit fidelity not materialized: sample=%d warmup=%d", sub2.Sample, sub2.Warmup)
	}
}

// A shard timeout <= 0 is the default bound: every attempt at a worker
// ends, so a stalled worker cannot hang the sweep.
func TestFleetOptionsNormalization(t *testing.T) {
	for _, d := range []time.Duration{0, -1} {
		f, err := newFleet([]string{"http://h:1"}, d)
		if err != nil {
			t.Fatal(err)
		}
		if f.timeout != defaultShardTimeout {
			t.Fatalf("shard timeout %v normalized to %v, want %v", d, f.timeout, defaultShardTimeout)
		}
	}
	if f, err := newFleet([]string{"http://h:1"}, time.Second); err != nil || f.timeout != time.Second {
		t.Fatalf("explicit shard timeout: %v, %v", f, err)
	}
}

// A worker listed twice is one worker: the dispatch loop starts one
// goroutine per advertised slot per base, so a duplicate base would get
// twice its /capacity of in-flight shards. The fleet ring is built from the
// same normalized bases, so a worker spelled "HTTP://h:1/" is both placed
// and marked Down under the name its slots are counted by.
func TestFleetDedupesWorkers(t *testing.T) {
	f, err := newFleet([]string{"HTTP://h:1/", "http://h:2/", "http://h:1", "http://h:2", "http://h:1/"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"http://h:1", "http://h:2"}; !slices.Equal(f.bases, want) {
		t.Fatalf("bases = %q, want %q in first-seen order", f.bases, want)
	}
	var members []string
	for _, m := range f.fw.Ring.Members() {
		members = append(members, m.URL)
	}
	if !slices.Equal(members, slices.Sorted(slices.Values(f.bases))) {
		t.Fatalf("ring members = %q, want the bases %q", members, f.bases)
	}
}
