package musa

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"musa/internal/apps"
)

func intp(i int) *int { return &i }

func archp() *Arch {
	a := DefaultArch()
	return &a
}

// TestExperimentNormalizeValidation drives the one validation path with
// every class of invalid input and checks the typed error that comes back.
// No user input may reach a panicking simulation path.
func TestExperimentNormalizeValidation(t *testing.T) {
	badArch := DefaultArch()
	badArch.CacheLabel = "huge"
	badCore := DefaultArch()
	badCore.CoreType = "quantum"
	negCores := DefaultArch()
	negCores.Cores = -1
	nanFreq := DefaultArch()
	nanFreq.FreqGHz = math.NaN() // no JSON body can say it; a Go caller can

	cases := []struct {
		name string
		e    Experiment
		want error
	}{
		{"unknown kind", Experiment{Kind: "warp", App: "hydro", Arch: archp()}, ErrBadKind},
		{"unknown app", Experiment{App: "quake", Arch: archp()}, ErrUnknownApp},
		{"missing app", Experiment{Arch: archp()}, ErrUnknownApp},
		{"unknown sweep app", Experiment{Kind: KindSweep, Apps: []string{"quake"}}, ErrUnknownApp},
		{"node takes App not Apps", Experiment{App: "hydro", Apps: []string{"hydro"}, Arch: archp()}, ErrExperiment},
		{"bad cache label", Experiment{App: "hydro", Arch: &badArch}, ErrBadArch},
		{"bad core type", Experiment{App: "hydro", Arch: &badCore}, ErrBadArch},
		{"negative cores", Experiment{App: "hydro", Arch: &negCores}, ErrBadArch},
		{"NaN frequency", Experiment{App: "hydro", Arch: &nanFreq}, ErrBadArch},
		{"missing arch", Experiment{App: "hydro"}, ErrBadArch},
		{"arch and point index", Experiment{App: "hydro", Arch: archp(), PointIndex: intp(0)}, ErrBadArch},
		{"point index out of range", Experiment{App: "hydro", PointIndex: intp(100000)}, ErrBadPoint},
		{"negative point index", Experiment{App: "hydro", PointIndex: intp(-1)}, ErrBadPoint},
		{"sweep point indices out of range", Experiment{Kind: KindSweep, PointIndices: []int{0, 99999}}, ErrBadPoint},
		{"point indices on node", Experiment{App: "hydro", Arch: archp(), PointIndices: []int{0}}, ErrBadPoint},
		{"negative sample", Experiment{App: "hydro", Arch: archp(), Sample: -1}, ErrBadFidelity},
		{"negative warmup", Experiment{App: "hydro", Arch: archp(), Warmup: -1}, ErrBadFidelity},
		// Its window would be allocated whole: an out-of-memory crash.
		{"unbounded sample", Experiment{App: "btmz", PointIndex: intp(0), Sample: 1 << 40, NoReplay: true}, ErrBadFidelity},
		{"unbounded warmup", Experiment{Kind: KindSweep, Warmup: apps.MaxWindow}, ErrBadFidelity},
		{"unbounded optimize rung", Experiment{Kind: KindOptimize, App: "btmz",
			Optimize: &OptimizeSpec{MinSample: apps.MaxWindow}}, ErrBadFidelity},
		{"negative replay rank", Experiment{App: "hydro", Arch: archp(), ReplayRanks: []int{-1}}, ErrBadReplayRanks},
		{"replay rank of one", Experiment{App: "hydro", Arch: archp(), ReplayRanks: []int{1}}, ErrBadReplayRanks},
		{"huge replay rank", Experiment{App: "hydro", Arch: archp(), ReplayRanks: []int{1 << 30}}, ErrBadReplayRanks},
		{"too many replay ranks", Experiment{App: "hydro", Arch: archp(),
			ReplayRanks: []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}}, ErrBadReplayRanks},
		{"unknown network", Experiment{App: "hydro", Arch: archp(), Network: "warpdrive"}, ErrBadNetwork},
		{"full-app rank of one", Experiment{Kind: KindFullApp, App: "hydro", Arch: archp(), Ranks: 1}, ErrBadRanks},
		{"full-app absurd ranks", Experiment{Kind: KindFullApp, App: "hydro", Arch: archp(), Ranks: 1 << 30}, ErrBadRanks},
		{"ranks on node", Experiment{App: "hydro", Arch: archp(), Ranks: 64}, ErrBadRanks},
		{"scaling bad core count", Experiment{Kind: KindScaling, App: "hydro", CoreCounts: []int{0}}, ErrBadCoreCounts},
		{"core counts on node", Experiment{App: "hydro", Arch: archp(), CoreCounts: []int{1}}, ErrBadCoreCounts},
		{"scaling replay ranks", Experiment{Kind: KindScaling, App: "hydro", ReplayRanks: []int{4}}, ErrBadReplayRanks},
		{"unconventional with app", Experiment{Kind: KindUnconventional, App: "hydro"}, ErrExperiment},
		{"unconventional with arch", Experiment{Kind: KindUnconventional, Arch: archp()}, ErrBadArch},
		{"sweep with arch", Experiment{Kind: KindSweep, Arch: archp()}, ErrBadArch},
		{"sweep empty point indices", Experiment{Kind: KindSweep, PointIndices: []int{}}, ErrBadPoint},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.e.Normalize()
			if err == nil {
				t.Fatalf("Normalize accepted %+v", tc.e)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !errors.Is(err, ErrExperiment) {
				t.Fatalf("err = %v does not wrap ErrExperiment", err)
			}
		})
	}
}

func TestExperimentNormalizeDefaults(t *testing.T) {
	ne, err := Experiment{App: "lulesh", Arch: archp()}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if ne.Kind != KindNode || ne.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", ne)
	}
	if !reflect.DeepEqual(ne.ReplayRanks, DefaultReplayRanks()) || ne.Network != "mn4" {
		t.Fatalf("replay defaults not applied: ranks=%v network=%q", ne.ReplayRanks, ne.Network)
	}

	// An explicit empty rank list folds into NoReplay; replay lists are
	// sorted and deduplicated; sweeps sort their app and point lists.
	ne, err = Experiment{App: "lulesh", Arch: archp(), ReplayRanks: []int{}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !ne.NoReplay || ne.ReplayRanks != nil || ne.Network != "" {
		t.Fatalf("empty rank list not folded into NoReplay: %+v", ne)
	}
	ne, err = Experiment{Kind: KindSweep, Apps: []string{"spmz", "hydro", "spmz"},
		PointIndices: []int{5, 1, 5}, ReplayRanks: []int{256, 64, 256}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ne.Apps, []string{"hydro", "spmz"}) ||
		!reflect.DeepEqual(ne.PointIndices, []int{1, 5}) ||
		!reflect.DeepEqual(ne.ReplayRanks, []int{64, 256}) {
		t.Fatalf("sweep lists not canonicalized: %+v", ne)
	}

	// A full-app experiment defaults to the paper's 256-rank scale.
	ne, err = Experiment{Kind: KindFullApp, App: "hydro", PointIndex: intp(0)}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if ne.Ranks != 256 || ne.Arch == nil || ne.PointIndex != nil {
		t.Fatalf("full-app normalization: %+v", ne)
	}
}

// TestExperimentKeyGolden pins the canonical encoding and the store keys
// byte for byte: a change here is a schema change and must come with a
// SchemaVersion bump (stale caches are refused by the store, not
// misread).
func TestExperimentKeyGolden(t *testing.T) {
	arch := DefaultArch()
	golden := []struct {
		e     Experiment
		canon string
		key   string
	}{
		{
			Experiment{Kind: KindNode, App: "lulesh", Arch: &arch},
			`{"v":3,"kind":"node","app":"lulesh","arch":{"cores":64,"coreType":"medium","freqGHz":2,"vectorBits":128,"cacheLabel":"64M:512K","channels":4},"seed":1,"replayRanks":[64,256],"network":{"LatencyNs":1300,"BandwidthBps":12500000000,"EagerBytes":16384,"CollectiveLatencyNs":900}}`,
			"2e187b7b1c4f5a28cc32507c6ad09424854fe3226e8704ca72712bac9d4ae088",
		},
		{
			Experiment{Kind: KindNode, App: "hydro", Arch: &arch, Sample: 20000, Warmup: 40000, Seed: 7, NoReplay: true},
			`{"v":3,"kind":"node","app":"hydro","arch":{"cores":64,"coreType":"medium","freqGHz":2,"vectorBits":128,"cacheLabel":"64M:512K","channels":4},"sample":20000,"warmup":40000,"seed":7,"noReplay":true}`,
			"17279132465fcd1bfaef54be8f1e65ccfa074f84aea7173d154564ee53647ddf",
		},
		{
			Experiment{Kind: KindSweep, Apps: []string{"spmz", "hydro"}, PointIndices: []int{3, 1, 3},
				ReplayRanks: []int{256, 64}, Network: "hdr200"},
			`{"v":3,"kind":"sweep","apps":["hydro","spmz"],"pointIndices":[1,3],"seed":1,"replayRanks":[64,256],"network":{"LatencyNs":1000,"BandwidthBps":25000000000,"EagerBytes":16384,"CollectiveLatencyNs":700}}`,
			"66dd39087c57ed3a8a4b533dd8cfa879ca94527675dfce04af080042cd891877",
		},
	}
	for i, g := range golden {
		for run := 0; run < 3; run++ {
			b, err := g.e.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != g.canon {
				t.Fatalf("golden %d run %d: canonical encoding drifted:\n got %s\nwant %s", i, run, b, g.canon)
			}
			k, err := g.e.Key()
			if err != nil {
				t.Fatal(err)
			}
			if k != g.key {
				t.Fatalf("golden %d run %d: key drifted: got %s want %s", i, run, k, g.key)
			}
		}
	}
}

// TestExperimentKeyDiscriminates ports the old store.Request key test onto
// the canonical encoding: every semantically distinct request must hash to
// a distinct key, and every normalization alias to the same one.
func TestExperimentKeyDiscriminates(t *testing.T) {
	arch := DefaultArch()
	base := Experiment{App: "lulesh", Arch: &arch, Sample: 1000, Seed: 1}
	baseKey, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}

	// Seed 0 normalizes to seed 1.
	zeroSeed := base
	zeroSeed.Seed = 0
	if k, _ := zeroSeed.Key(); k != baseKey {
		t.Fatal("seed 0 must normalize to seed 1")
	}

	otherArch := DefaultArch()
	otherArch.FreqGHz = 2.5
	variants := []Experiment{
		{App: "hydro", Arch: &arch, Sample: 1000, Seed: 1},
		{App: "lulesh", Arch: &otherArch, Sample: 1000, Seed: 1},
		{App: "lulesh", Arch: &arch, Sample: 2000, Seed: 1},
		{App: "lulesh", Arch: &arch, Sample: 1000, Warmup: 1, Seed: 1},
		{App: "lulesh", Arch: &arch, Sample: 1000, Seed: 2},
		{App: "lulesh", Arch: &arch, Sample: 1000, Seed: 1, NoReplay: true},
		{App: "lulesh", Arch: &arch, Sample: 1000, Seed: 1, ReplayRanks: []int{128}},
		{App: "lulesh", Arch: &arch, Sample: 1000, Seed: 1, Network: "hdr200"},
		{Kind: KindFullApp, App: "lulesh", Arch: &arch, Sample: 1000, Seed: 1},
	}
	seen := map[string]bool{baseKey: true}
	for i, v := range variants {
		k, err := v.Key()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if seen[k] {
			t.Fatalf("variant %d collided with another experiment key", i)
		}
		seen[k] = true
	}

	// A node-only request must not be influenced by a stray network name.
	stray := base
	stray.NoReplay = true
	strayNet := stray
	strayNet.Network = "hdr200"
	k1, _ := stray.Key()
	k2, _ := strayNet.Key()
	if k1 != k2 {
		t.Fatal("network name leaked into a node-only experiment key")
	}

	// Rank order and duplicates must not change the key.
	a, b := base, base
	a.ReplayRanks = []int{256, 64}
	b.ReplayRanks = []int{64, 256, 64}
	ka, _ := a.Key()
	kb, _ := b.Key()
	if ka != kb {
		t.Fatal("replay rank order/duplicates changed the experiment key")
	}
	// The default replay configuration spelled explicitly is the default.
	if ka != baseKey {
		t.Fatal("explicit default replay ranks hashed differently from the default")
	}
}

// TestExperimentWireDecoding covers the JSON wire form. The pre-v1 "point"
// spelling of "arch" is gone: a body using it carries no architecture, and
// validation says so instead of simulating something else.
func TestExperimentWireDecoding(t *testing.T) {
	var e Experiment
	if err := json.Unmarshal([]byte(`{"app":"lulesh","arch":{"cores":64,"coreType":"medium","freqGHz":2,"vectorBits":128,"cacheLabel":"64M:512K","channels":4}}`), &e); err != nil {
		t.Fatal(err)
	}
	if e.Arch == nil || e.Arch.CoreType != "medium" {
		t.Fatalf("arch not decoded: %+v", e)
	}
	e = Experiment{}
	if err := json.Unmarshal([]byte(`{"app":"lulesh","point":{"cores":64,"coreType":"medium","freqGHz":2,"vectorBits":128,"cacheLabel":"64M:512K","channels":4}}`), &e); err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); !errors.Is(err, ErrBadArch) || !strings.Contains(err.Error(), "missing Arch or PointIndex") {
		t.Fatalf(`a "point" body validated as: %v`, err)
	}
	var rt Experiment
	b, err := json.Marshal(Experiment{Kind: KindSweep, Apps: []string{"hydro"}, ReplayRanks: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rt); err != nil {
		t.Fatal(err)
	}
	if rt.Kind != KindSweep || len(rt.Apps) != 1 || len(rt.ReplayRanks) != 1 {
		t.Fatalf("round trip lost fields: %+v", rt)
	}
}

// TestSetReplayFlags is the table-driven test of the one CLI replay-flag
// parser shared by `musa dse` and `musa serve`.
func TestSetReplayFlags(t *testing.T) {
	cases := []struct {
		name      string
		csv       string
		noReplay  bool
		network   string
		wantErr   bool
		wantRanks []int
	}{
		{name: "empty means defaults", csv: "", wantRanks: nil},
		{name: "single", csv: "64", wantRanks: []int{64}},
		{name: "list with spaces", csv: " 64, 256 ", wantRanks: []int{64, 256}},
		{name: "no replay with list kept", csv: "64", noReplay: true, wantRanks: []int{64}},
		{name: "network name passthrough", csv: "", network: "hdr200"},
		{name: "garbage", csv: "64,apple", wantErr: true},
		{name: "negative", csv: "-4", wantErr: true},
		{name: "rank of one", csv: "1", wantErr: true},
		{name: "too large", csv: "1000000000", wantErr: true},
		{name: "too many", csv: "2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e Experiment
			err := e.SetReplayFlags(tc.csv, tc.noReplay, tc.network)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("accepted %q", tc.csv)
				}
				if !errors.Is(err, ErrBadReplayRanks) {
					t.Fatalf("err = %v, want ErrBadReplayRanks", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(e.ReplayRanks, tc.wantRanks) ||
				e.NoReplay != tc.noReplay || e.Network != tc.network {
				t.Fatalf("flags parsed to %+v", e)
			}
		})
	}
}

func TestCacheLabelsInArchError(t *testing.T) {
	bad := DefaultArch()
	bad.CacheLabel = "nope"
	_, err := bad.toPoint()
	if err == nil {
		t.Fatal("bad cache label accepted")
	}
	for _, l := range CacheLabels() {
		if !strings.Contains(err.Error(), l) {
			t.Fatalf("error %q does not list valid label %s", err, l)
		}
	}
}
