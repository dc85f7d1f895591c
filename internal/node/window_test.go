package node

import (
	"slices"
	"testing"

	"musa/internal/apps"
)

// TestSampleWindowMatchesFullWindow: stepping the generator through the warm
// window without keeping it must leave it exactly where materialising the
// warm window leaves it, for every application and for implicit fidelity —
// a stream restored from its checkpoint there continues with the full
// window's sample part — and a fuse of the sample window alone, or streamed
// from the checkpoint at all three Table I widths at once, is the fuse of
// the full window's sample part.
func TestSampleWindowMatchesFullWindow(t *testing.T) {
	for _, app := range apps.All() {
		for _, fid := range [][2]int64{{5000, 12345}, {3000, 1}, {4000, 0}} {
			full := BuildScalarTrace(app, fid[0], fid[1], 9)
			sample := BuildSampleWindow(app, fid[0], fid[1], 9)
			if sample.Warm != 0 || !slices.Equal(sample.Instrs, full.Instrs[full.Warm:]) {
				t.Fatalf("%s at %v: sample window differs from the full window's sample part", app.Name, fid)
			}
			s := NewScratch()
			streamed := s.FuseSample(s.SampleCheckpoint(app, fid[0], fid[1], 9), fid[0], app, 9, tableIWidths)
			for i, vec := range tableIWidths {
				ref := FuseScalarTrace(full, app, vec, 9)
				if !sameHalf(FuseSample(sample, app, vec, 9), ref) || !sameHalf(streamed[i], ref) {
					t.Fatalf("%s at %v, %d bits: fused sample halves differ", app.Name, fid, vec)
				}
			}
		}
	}
}

// BenchmarkSampleWindow is the scalar-window rung outside benchmark/, per
// application at the benchmark's fidelity (120 000 sample after 700 000
// warm-up micro-ops): "full" is the warm+sample window a whole-window cache
// walk needs, "checkpoint" the generator stepped through the warm window to
// the sample window's checkpoint (what a run served from hit-rate tables
// runs when its client's front lacks the checkpoint), and "fuse" what such
// a run does per application from the checkpoint: restore it, generate the
// sample window chunk by chunk and fuse it at the three Table I widths, on
// a scratch a previous fuse left.
func BenchmarkSampleWindow(b *testing.B) {
	const sample, warmup = 120000, 700000
	for _, app := range apps.All() {
		b.Run(app.Name+"/full", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				BuildScalarTrace(app, sample, warmup, 1)
			}
		})
		s := NewScratch()
		b.Run(app.Name+"/checkpoint", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				s.SampleCheckpoint(app, sample, warmup, 1)
			}
		})
		cp := s.SampleCheckpoint(app, sample, warmup, 1)
		b.Run(app.Name+"/fuse", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, ft := range s.FuseSample(cp, sample, app, 1, tableIWidths) {
					s.ReleaseFused(ft)
				}
			}
			b.ReportMetric(float64(cp.Bytes()), "checkpoint-B")
		})
	}
}

// BenchmarkColdFrontEnd times what a cold sweep builds per application
// before its first timing replay, on LULESH at the benchmark's fidelity
// (120 000 sample after 700 000 warm-up micro-ops): "generate" is the full
// scalar window a whole-window build materialises, "fuse-sample" one width's
// sample fuse (256 bits), and "pass" the cold pass that streams the warm
// window through the three widths' fusers and the three Table I cache
// configurations of a 64-core node at each, and resolves all nine tables.
// The generate and fuse rungs report host ns per scalar micro-op they read,
// the pass ns per scalar micro-op of the window (warm and sample) per width.
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
	pass := coldPassOf(app, sample, warmup, tableIWidths)
	b.Run("pass", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			pass.Run()
		}
		perOp(b, len(st.Instrs)*len(tableIWidths), "ns/uop")
	})
}
