package node

import (
	"slices"
	"testing"

	"musa/internal/apps"
)

// TestSampleWindowMatchesFullWindow: stepping the generator through the warm
// window without keeping it must leave it exactly where materialising the
// warm window leaves it, for every application and for implicit fidelity;
// and a fuse of the sample window alone is the fuse of the full window's
// sample part.
func TestSampleWindowMatchesFullWindow(t *testing.T) {
	for _, app := range apps.All() {
		for _, fid := range [][2]int64{{5000, 12345}, {3000, 1}, {4000, 0}} {
			full := BuildScalarTrace(app, fid[0], fid[1], 9)
			sample := BuildSampleWindow(app, fid[0], fid[1], 9)
			if sample.Warm != 0 || !slices.Equal(sample.Instrs, full.Instrs[full.Warm:]) {
				t.Fatalf("%s at %v: sample window differs from the full window's sample part", app.Name, fid)
			}
			cp := full.SampleWindow()
			if cp.Warm != 0 || !slices.Equal(cp.Instrs, sample.Instrs) {
				t.Fatalf("%s at %v: SampleWindow copy differs", app.Name, fid)
			}
			cp.Instrs[0].PC++ // the copy shares no memory with the full window
			if full.Instrs[full.Warm] != sample.Instrs[0] {
				t.Fatalf("%s: SampleWindow aliases the full window", app.Name)
			}
			a, b := FuseSample(full, app, 512, 9), FuseSample(sample, app, 512, 9)
			if !slices.Equal(a.Meta, b.Meta) || !slices.Equal(a.Deps, b.Deps) ||
				!slices.Equal(a.SampleOps, b.SampleOps) || a.Counts != b.Counts {
				t.Fatalf("%s at %v: fused sample halves differ", app.Name, fid)
			}
		}
	}
}

// BenchmarkSampleWindow is the scalar-window rung outside benchmark/: the
// full warm+sample window a cache walk needs against the sample window a run
// served from hit-rate tables needs, per application, at the benchmark's
// fidelity (120 000 sample after 700 000 warm-up micro-ops).
func BenchmarkSampleWindow(b *testing.B) {
	const sample, warmup = 120000, 700000
	for _, app := range apps.All() {
		b.Run(app.Name+"/full", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				BuildScalarTrace(app, sample, warmup, 1)
			}
		})
		b.Run(app.Name+"/sample", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				BuildSampleWindow(app, sample, warmup, 1)
			}
		})
	}
}
