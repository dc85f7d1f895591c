package musa

import (
	"encoding/json"
	"reflect"
	"testing"

	"musa/internal/apps"
	"musa/internal/net"
	"musa/internal/store"
)

// referenceCanonicalJSON is the canonical encoding as it was produced before
// appendCanonical: the canonicalExperiment of a normalized experiment through
// json.Marshal. Every store key ever written hashes these bytes, so the
// appended encoder is held to them byte for byte.
func referenceCanonicalJSON(t testing.TB, e Experiment, custom *apps.Profile) []byte {
	t.Helper()
	c := canonicalExperiment{
		V:    store.SchemaVersion,
		Kind: e.Kind,
		App:  e.App, CustomApp: custom, Apps: e.Apps,
		Arch: e.Arch, PointIndices: e.PointIndices,
		Sample: e.Sample, Warmup: e.Warmup, Seed: e.Seed,
		Ranks: e.Ranks, CoreCounts: e.CoreCounts,
		ReplayRanks: e.ReplayRanks, NoReplay: e.NoReplay,
		Optimize: e.Optimize,
	}
	if e.Network != "" {
		m, err := net.ByName(e.Network)
		if err != nil {
			t.Fatalf("normalized experiment names network %q: %v", e.Network, err)
		}
		c.Network = &m
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// anyApp is the resolver of a client that has every name registered.
func anyApp(string) error { return nil }

// customFor returns what such a client embeds into the keys of app: nothing
// for a built-in, else a valid profile under that (arbitrary) name.
func customFor(app string) *apps.Profile {
	if app == "" || apps.IsBuiltin(app) {
		return nil
	}
	p := apps.BTMZ()
	p.Name = app
	return p
}

// checkCanonical compares the appended encoding of a normalized experiment
// with the reference.
func checkCanonical(t testing.TB, ne Experiment, custom *apps.Profile) {
	t.Helper()
	got, err := ne.appendCanonicalJSON(nil, custom)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceCanonicalJSON(t, ne, custom); string(got) != string(want) {
		t.Fatalf("appendCanonical differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// canonicalSeeds are request bodies covering TestExperimentKeyGolden's cases,
// all six kinds, and the HBM / no-replay / named-network / custom-application
// / optimize shapes.
var canonicalSeeds = []string{
	`{"kind":"node","app":"lulesh","arch":{"cores":64,"coreType":"medium","freqGHz":2,"vectorBits":128,"cacheLabel":"64M:512K","channels":4}}`,
	`{"kind":"node","app":"hydro","arch":{"cores":64,"coreType":"medium","freqGHz":2,"vectorBits":128,"cacheLabel":"64M:512K","channels":4},"sample":20000,"warmup":40000,"seed":7,"noReplay":true}`,
	`{"kind":"sweep","apps":["spmz","hydro"],"pointIndices":[3,1,3],"replayRanks":[256,64],"network":"hdr200"}`,
	`{"app":"btmz","pointIndex":42}`,
	`{"app":"spmz","arch":{"cores":64,"coreType":"high","freqGHz":2.5,"vectorBits":2048,"cacheLabel":"96M:1M","channels":16,"hbm":true},"replayRanks":[]}`,
	`{"app":"spec3d","arch":{"cores":1,"coreType":"lowend","freqGHz":1e-7,"vectorBits":64,"cacheLabel":"32M:256K","channels":4},"network":"eth10","replayRanks":[8,16,4096]}`,
	`{"app":"hydro","arch":{"cores":32,"coreType":"aggressive","freqGHz":3.3e21,"vectorBits":512,"cacheLabel":"64M:512K","channels":8}}`,
	`{"kind":"full-app","app":"lulesh","pointIndex":0,"ranks":64,"network":"hdr200"}`,
	`{"kind":"scaling","app":"hydro","coreCounts":[1,2,1024],"seed":18446744073709551615}`,
	`{"kind":"sweep"}`,
	`{"kind":"sweep","app":"lulesh","pointIndices":[863],"noReplay":true}`,
	`{"kind":"unconventional","sample":1000,"warmup":33553432}`,
	`{"kind":"optimize","app":"btmz"}`,
	`{"kind":"optimize","app":"spmz","pointIndices":[0,100,200,300,400,500,600,700],"noReplay":true,"optimize":{"objectives":["edp","time","edp"],"maxPowerW":150.5,"eta":2,"rungs":3,"finalists":2,"minSample":500}}`,
	`{"app":"a<b&\"c\u2029\\","pointIndex":7}`,
	`{"app":"caf\u00e9 \ud83d\ude80\u0001\u2028\t","pointIndex":1,"replayRanks":[16],"network":"mn4"}`,
	`{"kind":"sweep","apps":["mine>","hydro","\u2029"],"pointIndices":[2]}`,
	`{"kind":"node","app":"hydro","pointIndex":5,"noReplay":true,"recompute":true}`,
}

// FuzzCanonicalMatchesMarshal is the fuzz target of the first parser on the
// request path: arbitrary bytes decoded as an Experiment never make Normalize
// panic, a normalized experiment normalizes to itself, and its appended
// canonical encoding is what json.Marshal renders. Names the built-in
// resolver rejects are normalized again as a client's registered custom
// applications, so arbitrary strings reach the encoder.
func FuzzCanonicalMatchesMarshal(f *testing.F) {
	for _, s := range canonicalSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var e Experiment
		if json.Unmarshal(body, &e) != nil {
			return
		}
		e.Normalize() // must not panic, whatever it answers
		ne, err := e.normalize(anyApp)
		if err != nil {
			return
		}
		again, err := ne.normalize(anyApp)
		if err != nil || !reflect.DeepEqual(ne, again) {
			t.Fatalf("Normalize is not idempotent (%v):\nonce  %+v\ntwice %+v", err, ne, again)
		}
		checkCanonical(t, ne, customFor(ne.App))
	})
}

// TestCanonicalNodeKeysMatchMarshal runs every key a paper-scale sweep
// derives — the 864 Table I points under three replay shapes, for a built-in
// and for a registered custom application — through both encoders, and
// nodeKey against the hash of the reference.
func TestCanonicalNodeKeysMatchMarshal(t *testing.T) {
	shapes := []Experiment{
		{Kind: KindSweep},
		{Kind: KindSweep, NoReplay: true, Sample: 20000, Warmup: 40000, Seed: 7},
		{Kind: KindSweep, ReplayRanks: []int{256, 8, 64}, Network: "hdr200"},
	}
	compared := 0
	for _, shape := range shapes {
		sweep, err := shape.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < PointCount(); i++ {
			arch, err := PointArch(i)
			if err != nil {
				t.Fatal(err)
			}
			for _, app := range []string{"lulesh", "my-solver"} {
				custom := customFor(app)
				ne := Experiment{
					Kind: KindNode, App: app, Arch: &arch,
					Sample: sweep.Sample, Warmup: sweep.Warmup, Seed: sweep.Seed,
					ReplayRanks: sweep.ReplayRanks, NoReplay: sweep.NoReplay, Network: sweep.Network,
				}
				checkCanonical(t, ne, custom)
				if got, want := nodeKey(sweep, app, custom, arch), hashKey(referenceCanonicalJSON(t, ne, custom)); got != want {
					t.Fatalf("nodeKey(%s, point %d) = %s, reference hashes to %s", app, i, got, want)
				}
				compared++
			}
		}
	}
	for _, s := range canonicalSeeds {
		var e Experiment
		if err := json.Unmarshal([]byte(s), &e); err != nil {
			t.Fatalf("seed %s: %v", s, err)
		}
		ne, err := e.normalize(anyApp)
		if err != nil {
			t.Fatalf("seed %s: %v", s, err)
		}
		checkCanonical(t, ne, customFor(ne.App))
		compared++
	}
	t.Logf("%d encodings compared", compared)
}
