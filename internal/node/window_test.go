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

// BenchmarkColdFrontEnd times what a cold sweep builds per (application,
// width) before its first timing replay, stage by stage, on LULESH at the
// benchmark's fidelity (120 000 sample after 700 000 warm-up micro-ops) and
// the 256-bit width: generating the full scalar window, fusing its sample
// and its warm half, and walking the fused trace through the three Table I
// cache configurations of a 64-core node at once. The generate and fuse
// rungs report host ns per scalar micro-op they read, the walk ns per warm
// access it replays.
func BenchmarkColdFrontEnd(b *testing.B) {
	const sample, warmup, width = 120000, 700000, 256
	app := apps.LULESH()
	st := BuildScalarTrace(app, sample, warmup, 1)
	perOp := func(b *testing.B, n int, unit string) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), unit)
	}
	b.Run("generate", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			BuildScalarTrace(app, sample, warmup, 1)
		}
		perOp(b, len(st.Instrs), "ns/uop")
	})
	b.Run("fuse-sample", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			FuseSample(st, app, width, 1)
		}
		perOp(b, sample, "ns/uop")
	})
	b.Run("fuse-warm", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			FuseWarm(st, width)
		}
		perOp(b, warmup, "ns/uop")
	})
	ft := FuseScalarTrace(st, app, width, 1)
	cfgs := make([]Config, 0, 3)
	for _, c := range [][2]int{{256, 32}, {512, 64}, {1024, 96}} {
		cfg := baseCfg()
		cfg.VectorBits, cfg.L2KBPerCore, cfg.L3MBTotal = width, c[0], c[1]
		cfg.SampleInstrs, cfg.WarmupInstrs = sample, warmup
		cfgs = append(cfgs, cfg)
	}
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			WalkCaches(ft, cfgs)
		}
		perOp(b, len(ft.WarmOps), "ns/access")
	})
}
