package musa_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"musa"
)

// genExperiment builds a pseudo-random valid experiment of the given kind.
// The generator only emits well-formed values — the property under test is
// canonicalization, not validation (experiment_test.go covers rejection
// paths).
func genExperiment(rng *rand.Rand, kind musa.Kind) musa.Experiment {
	appNames := []string{"lulesh", "spec3d", "btmz", "spmz", "hydro"}
	networks := []string{"", "mn4", "hdr200", "eth10"}
	e := musa.Experiment{
		Kind:   kind,
		Sample: int64(rng.Intn(3)) * 20000,
		Warmup: int64(rng.Intn(3)) * 40000,
		Seed:   uint64(rng.Intn(4)),
	}
	replayRanks := func() []int {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []int{}
		case 2:
			return []int{64}
		default:
			return []int{256, 64, 64} // unsorted + duplicate: Normalize canonicalizes
		}
	}
	switch kind {
	case musa.KindNode, musa.KindFullApp:
		e.App = appNames[rng.Intn(len(appNames))]
		if rng.Intn(2) == 0 {
			pi := rng.Intn(musa.PointCount())
			e.PointIndex = &pi
		} else {
			a, _ := musa.PointArch(rng.Intn(musa.PointCount()))
			e.Arch = &a
		}
		if kind == musa.KindNode {
			e.ReplayRanks = replayRanks()
			e.NoReplay = rng.Intn(3) == 0
		} else {
			e.PointIndex = nil
			if e.Arch == nil {
				a, _ := musa.PointArch(rng.Intn(musa.PointCount()))
				e.Arch = &a
			}
			e.Ranks = []int{0, 64, 256}[rng.Intn(3)]
		}
		e.Network = networks[rng.Intn(len(networks))]
	case musa.KindScaling:
		e.App = appNames[rng.Intn(len(appNames))]
		e.Ranks = []int{0, 64, 256}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			e.CoreCounts = []int{64, 1, 32}
		}
		e.Network = networks[rng.Intn(len(networks))]
	case musa.KindSweep, musa.KindOptimize:
		if kind == musa.KindSweep {
			if rng.Intn(2) == 0 {
				e.Apps = []string{"spmz", "lulesh", "lulesh"} // unsorted + duplicate
			} else {
				e.App = appNames[rng.Intn(len(appNames))] // single-app shorthand
			}
		} else {
			e.App = appNames[rng.Intn(len(appNames))]
		}
		if rng.Intn(2) == 0 {
			n := 1 + rng.Intn(6)
			idx := make([]int, n)
			for i := range idx {
				idx[i] = rng.Intn(musa.PointCount())
			}
			e.PointIndices = idx
		}
		e.ReplayRanks = replayRanks()
		e.NoReplay = rng.Intn(3) == 0
		e.Network = networks[rng.Intn(len(networks))]
		if kind == musa.KindOptimize && rng.Intn(2) == 0 {
			e.Optimize = &musa.OptimizeSpec{
				Objectives: [][]string{nil, {"edp"}, {"edp", "time"}, {"energy", "time", "edp"}}[rng.Intn(4)],
				MaxPowerW:  float64(rng.Intn(2)) * 95,
				Eta:        []int{0, 2, 3, 4}[rng.Intn(4)],
				Finalists:  []int{0, 1, 4, 8}[rng.Intn(4)],
				MinSample:  int64(rng.Intn(2)) * 5000,
			}
		}
	case musa.KindUnconventional:
		// Only fidelity/seed apply; the zero spec above is already complete.
	}
	return e
}

// TestNormalizeProperties is a property-style sweep over every experiment
// kind: Normalize must be idempotent, the canonical encoding must be
// byte-stable, and a JSON round trip through the wire form must produce
// the same canonical bytes — and therefore the same store key.
func TestNormalizeProperties(t *testing.T) {
	kinds := []musa.Kind{
		musa.KindNode, musa.KindFullApp, musa.KindScaling,
		musa.KindSweep, musa.KindUnconventional, musa.KindOptimize,
	}
	rng := rand.New(rand.NewSource(9)) // fixed seed: deterministic corpus
	const perKind = 64

	for _, kind := range kinds {
		for i := 0; i < perKind; i++ {
			e := genExperiment(rng, kind)

			ne, err := e.Normalize()
			if err != nil {
				t.Fatalf("%s case %d: Normalize(%+v): %v", kind, i, e, err)
			}

			// Idempotence: normalizing the normalized form is a no-op.
			ne2, err := ne.Normalize()
			if err != nil {
				t.Fatalf("%s case %d: re-Normalize: %v", kind, i, err)
			}
			if !reflect.DeepEqual(ne, ne2) {
				t.Fatalf("%s case %d: Normalize not idempotent:\n first %+v\nsecond %+v", kind, i, ne, ne2)
			}

			// Canonical bytes are stable across repeated encoding...
			canon, err := e.CanonicalJSON()
			if err != nil {
				t.Fatalf("%s case %d: CanonicalJSON: %v", kind, i, err)
			}
			again, _ := e.CanonicalJSON()
			if !bytes.Equal(canon, again) {
				t.Fatalf("%s case %d: CanonicalJSON unstable:\n%s\n%s", kind, i, canon, again)
			}
			// ...and identical for the already-normalized form.
			fromNorm, err := ne.CanonicalJSON()
			if err != nil {
				t.Fatalf("%s case %d: normalized CanonicalJSON: %v", kind, i, err)
			}
			if !bytes.Equal(canon, fromNorm) {
				t.Fatalf("%s case %d: normalized form encodes differently:\nraw  %s\nnorm %s", kind, i, canon, fromNorm)
			}

			// A JSON round trip through the wire form (Marshal of the
			// normalized experiment, Unmarshal, re-canonicalize) holds the key.
			wire, err := json.Marshal(ne)
			if err != nil {
				t.Fatalf("%s case %d: marshal normalized: %v", kind, i, err)
			}
			var back musa.Experiment
			if err := json.Unmarshal(wire, &back); err != nil {
				t.Fatalf("%s case %d: unmarshal wire form: %v", kind, i, err)
			}
			roundCanon, err := back.CanonicalJSON()
			if err != nil {
				t.Fatalf("%s case %d: round-trip CanonicalJSON: %v", kind, i, err)
			}
			if !bytes.Equal(canon, roundCanon) {
				t.Fatalf("%s case %d: wire round trip diverges:\norig  %s\nround %s", kind, i, canon, roundCanon)
			}

			// Keys agree by construction of the above, but assert the public
			// entry point too.
			k1, _ := e.Key()
			k2, _ := back.Key()
			if k1 != k2 {
				t.Fatalf("%s case %d: Key mismatch across the wire round trip: %s vs %s", kind, i, k1, k2)
			}
		}
	}
}
