package node

import (
	"runtime"
	"sync"
	"testing"

	"musa/internal/apps"
)

// FuzzSampleCheckpointMatchesWindow streams sample windows from checkpoints
// on applications, seeds, small fidelities, pairs of widths and chunk
// lengths (300, 4 096 and coldChunk micro-ops) nobody picked: the checkpoint
// a generator stepped through the warm window takes, restored twice on one
// scratch — the second time into the generator, chunk buffers, fusers and
// halves the first released — must give each width the fused sample half
// of FuseScalarTrace(BuildScalarTrace(…)). The checked-in corpus holds
// boundaries inside a block, where the checkpoint carries the rest of the
// block, and between blocks, a one-micro-op warm window and a sample window
// shorter than a chunk.
func FuzzSampleCheckpointMatchesWindow(f *testing.F) {
	all := apps.All()
	widths := []int{128, 256, 512, 2048}
	chunks := []int{300, 4096, coldChunk}
	f.Fuzz(func(t *testing.T, app uint8, seed uint64, sample, warmup uint16, width, chunk uint8) {
		a := all[int(app)%len(all)]
		n, w := int64(sample%8000)+1, int64(warmup%16000)+1
		ws := []int{widths[int(width)%len(widths)], widths[(int(width)+1)%len(widths)]}
		c := chunks[int(chunk)%len(chunks)]
		full := BuildScalarTrace(a, n, w, seed)
		s := NewScratch()
		cp := s.SampleCheckpoint(a, n, w, seed)
		for round := range 2 {
			for i, ft := range s.fuseSample(cp, n, a, seed, ws, c) {
				if !sameHalf(ft, FuseScalarTrace(full, a, ws[i], seed)) {
					t.Fatalf("%s %d bits, chunk %d, round %d: the half streamed from the checkpoint differs from the reference",
						a.Name, ws[i], c, round)
				}
				s.ReleaseFused(ft)
			}
		}
	})
}

// TestCheckpointCorpusCoversMidBlock: the fuzzer's checked-in corpus holds
// a warm/sample boundary inside a basic block and one between two (its
// mid-block-lulesh, sample-shorter-than-chunk-mid-block and
// between-blocks-hydro inputs, as the fuzz target resolves them).
func TestCheckpointCorpusCoversMidBlock(t *testing.T) {
	var mid, between bool
	for _, in := range []struct {
		app            *apps.Profile
		seed           uint64
		sample, warmup int64
	}{{apps.LULESH(), 1, 3001, 9001}, {apps.SPMZ(), 9, 120, 15001}, {apps.Hydro(), 1, 3001, 9013}} {
		full := BuildScalarTrace(in.app, in.sample, in.warmup, in.seed)
		if full.Instrs[full.Warm-1].BB == full.Instrs[full.Warm].BB {
			mid = true
		} else {
			between = true
		}
	}
	if !mid || !between {
		t.Errorf("corpus boundaries mid-block %v, between blocks %v: want both", mid, between)
	}
}

// TestConcurrentCheckpointRestores: four goroutines on views of one scratch
// restore one checkpoint at once, three times each, and every half they
// stream equals the reference (run under -race: a checkpoint is read, never
// written, by a restore).
func TestConcurrentCheckpointRestores(t *testing.T) {
	const sample, warmup = 6000, 20000
	app := apps.BTMZ()
	full := BuildScalarTrace(app, sample, warmup, 2)
	refs := make([]*FusedTrace, len(tableIWidths))
	for i, vec := range tableIWidths {
		refs[i] = FuseScalarTrace(full, app, vec, 2)
	}
	s := NewScratch()
	cp := s.SampleCheckpoint(app, sample, warmup, 2)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := s.Share()
			for range 3 {
				for i, ft := range v.FuseSample(cp, sample, app, 2, tableIWidths) {
					if !sameHalf(ft, refs[i]) {
						t.Errorf("%d bits: a half streamed from a shared checkpoint differs from the reference", tableIWidths[i])
					}
					v.ReleaseFused(ft)
				}
			}
		}()
	}
	wg.Wait()
}

// TestNothingMaterialised: at the benchmark's fidelity (120 000 sample after
// 700 000 warm-up micro-ops) a three-width LULESH cold pass and the sample
// fuse of the three widths from its checkpoint each allocate under 0.1 MB
// on a scratch earlier ones released to — less than one 256 KiB chunk
// buffer, let alone the 3.84 MB sample window, so no column of micro-ops is
// allocated beyond the two chunk buffers they draw from the scratch — and
// the checkpoint is at most 1 MB.
func TestNothingMaterialised(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-fidelity passes; allocation pins skip under -race")
	}
	const sample, warmup = 120000, 700000
	app := apps.LULESH()
	p := coldPassOf(app, sample, warmup, tableIWidths)
	p.Scratch = NewScratch()
	var cp *apps.Checkpoint
	pass := func() {
		var res []WidthTables
		cp, res = p.Run()
		release(p.Scratch, res)
	}
	fuse := func() {
		for _, ft := range p.Scratch.FuseSample(cp, sample, app, p.Seed, tableIWidths) {
			p.Scratch.ReleaseFused(ft)
		}
	}
	for _, c := range []struct {
		name string
		run  func()
	}{{"cold pass", pass}, {"sample fuse from the checkpoint", fuse}} {
		c.run()
		c.run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.run()
		runtime.ReadMemStats(&after)
		const bound = 0.1e6
		if got := after.TotalAlloc - before.TotalAlloc; float64(got) >= bound {
			t.Errorf("a %s on a warm scratch allocated %.3f MB, want under %.1f MB", c.name, float64(got)/1e6, bound/1e6)
		} else {
			t.Logf("a %s on a warm scratch allocated %.3f MB (%d objects)", c.name, float64(got)/1e6, after.Mallocs-before.Mallocs)
		}
	}
	if b := cp.Bytes(); b > 1<<20 {
		t.Errorf("the checkpoint holds %d bytes, over 1 MB", b)
	}
	if st := p.Scratch.Stats(); st[ScratchChunks].New != 2 {
		t.Errorf("%d chunk buffers allocated over three passes and three fuses, want the first pass's two", st[ScratchChunks].New)
	}
}
