package musa

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"musa/internal/dse"
)

// goldenReducedSweepDigest is the SHA-256 of the reduced CI sweep's dataset
// bytes (see reducedSweepDigest), pinned when the staged sub-result pipeline
// landed. It is the byte-identity invariant as a constant: any change to the
// simulation core — pooled memory, SoA layouts, staged artifacts — must
// reproduce this exact dataset, whether the run is cold, builds the staged
// artifacts, or reuses them. Update it only for a deliberate model change.
const goldenReducedSweepDigest = "71906d24df8a8073e7bcf5116a6a2bece2036b7fc21bb701b49a7b1db70a0e8c"

// reducedSweepDigest hashes a dataset the way the invariant is stated: the
// canonical JSON encoding of every measurement (already deterministically
// sorted by dse.Run), one per line.
func reducedSweepDigest(t *testing.T, ms []dse.Measurement) string {
	t.Helper()
	h := sha256.New()
	for _, m := range ms {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte("\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reducedSweepExperimentT is the reduced sweep the golden digest pins: the
// one-application 64-core 2 GHz slice (72 points) at the bench fidelity.
func reducedSweepExperimentT(t *testing.T) Experiment {
	t.Helper()
	var idx []int
	for i := 0; i < PointCount(); i++ {
		a, err := PointArch(i)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cores == 64 && a.FreqGHz == 2.0 {
			idx = append(idx, i)
		}
	}
	return Experiment{
		Kind:         KindSweep,
		Apps:         []string{"lulesh"},
		PointIndices: idx,
		Sample:       benchSample,
		Warmup:       benchWarmup,
		Seed:         1,
		ReplayRanks:  []int{64},
		Recompute:    true,
	}
}

// TestGoldenReducedSweepDigest runs the reduced sweep three ways — cold with
// no artifact layer, cold while building staged sub-result artifacts, and
// warm reusing them — and asserts every run reproduces the pinned digest.
func TestGoldenReducedSweepDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity reduced sweep")
	}
	exp := reducedSweepExperimentT(t)
	artDir := t.TempDir()
	runs := []struct {
		name string
		opts ClientOptions
	}{
		{"cold", ClientOptions{NoArtifacts: true}},
		{"staged-build", ClientOptions{ArtifactCache: artDir}},
		{"staged-warm", ClientOptions{ArtifactCache: artDir}},
	}
	for _, run := range runs {
		run.opts.CacheDir = t.TempDir()
		client, err := NewClient(run.opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.Run(context.Background(), exp)
		if cerr := client.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if got := reducedSweepDigest(t, res.Sweep.Measurements); got != goldenReducedSweepDigest {
			t.Errorf("%s run digest = %s, want %s (dataset bytes changed)",
				run.name, got, goldenReducedSweepDigest)
		}
	}
}
