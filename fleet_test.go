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

func TestValidateShardReply(t *testing.T) {
	grid := tableIGrid()
	points := []dse.ArchPoint{grid[0], grid[1]}
	good := []Measurement{
		{App: "btmz", Arch: grid[0]},
		{App: "btmz", Arch: grid[1]},
	}
	if err := validateShardReply("btmz", points, good); err != nil {
		t.Fatalf("valid reply rejected: %v", err)
	}
	cases := map[string][]Measurement{
		"short":     {good[0]},
		"stray app": {good[0], {App: "hydro", Arch: grid[1]}},
		"stray pt":  {good[0], {App: "btmz", Arch: grid[5]}},
		"duplicate": {good[0], good[0]},
	}
	for name, ms := range cases {
		if err := validateShardReply("btmz", points, ms); err == nil {
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
	grid := tableIGrid()
	sub, ok := shardExperiment(ne, "btmz", []dse.ArchPoint{grid[3], grid[4]})
	if !ok || !slices.Equal(sub.PointIndices, []int{3, 4}) {
		t.Fatalf("shard experiment names points %v, want [3 4]", sub.PointIndices)
	}
	if sub.Seed != 1 || sub.Network != "mn4" || len(sub.ReplayRanks) != 1 {
		t.Fatalf("shard experiment lost normalized defaults: %+v", sub)
	}
	if _, err := sub.Normalize(); err != nil {
		t.Fatalf("shard experiment does not validate: %v", err)
	}
	// The shard's node keys must match the coordinator's: same fidelity,
	// seed and replay fields means nodeKey agrees for every point.
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
	sub2, _ := shardExperiment(ne2, "btmz", []dse.ArchPoint{grid[3], grid[4]})
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

// A worker listed twice is one worker: a sweep counts each base's
// advertised slots, so a duplicate base would get twice its maxJobs of
// in-flight shards. The fleet ring is built from the
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
