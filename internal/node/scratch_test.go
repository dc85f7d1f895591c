package node

import (
	"runtime"
	"slices"
	"testing"

	"musa/internal/apps"
	"musa/internal/cpu"
	"musa/internal/xrand"
)

// release hands a pass's sample window and fused halves back to s, as a
// sweep does once the application's last group is done.
func release(s *Scratch, st ScalarTrace, res []WidthTables) {
	s.ReleaseWindow(st)
	for _, w := range res {
		s.ReleaseFused(w.Fused)
	}
}

// TestScratchPassesMatchReference drives one Scratch through a shuffled
// sequence of cold passes — every application, each Table I width, nodes of
// 1, 32 and 64 cores under the three Table I caches, two fidelities and
// chunks of 300, 4 096 and 65 536 micro-ops — releasing each pass's window
// and halves before the next, and compares every pass with its fresh
// whole-window reference. Passes over the same configurations reset the
// previous pass's hierarchies, except those holding a 1-core node's L3
// partitions (24 MB a width), which the scratch lets go; a smaller fidelity
// or chunk runs on larger recycled storage, a larger one outgrows it.
func TestScratchPassesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve cold passes against their references")
	}
	type pass struct {
		app            *apps.Profile
		sample, warmup int64
		chunk          int
		widths, cores  []int
	}
	fids := [][2]int64{{20000, 40000}, {6000, 30000}}
	chunks := []int{300, 4096, coldChunk}
	widthSets := [][]int{tableIWidths, {256}, {512, 128}}
	coreSets := [][]int{{64}, {1, 32, 64}, {32}, {1}}
	var passes []pass
	for i := range 12 {
		app := apps.All()[i%5]
		fid := fids[i%2]
		passes = append(passes, pass{app, fid[0], fid[1], chunks[i%3], widthSets[i%3], coreSets[i%4]})
	}
	rng := xrand.New(7)
	for i := len(passes) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		passes[i], passes[j] = passes[j], passes[i]
	}
	s := new(Scratch)
	for _, ps := range passes {
		p := coldPassOf(ps.app, ps.sample, ps.warmup, ps.widths, ps.cores...)
		p.Scratch = s
		st, res := checkPassMatchesReference(t, p, ps.chunk)
		release(s, st, res)
	}
	st := s.Stats()
	for name, c := range map[string]ScratchCount{
		"windows": st.Windows, "halves": st.Halves, "chunk buffers": st.Chunks, "hierarchies": st.Hierarchies,
	} {
		if c.Reused == 0 {
			t.Errorf("%s: %+v, none reused: the sequence does not exercise recycled storage", name, c)
		}
	}
	if s.walkBytes > maxScratchWalkBytes {
		t.Errorf("the scratch keeps %d bytes of cache arrays, over its bound of %d", s.walkBytes, maxScratchWalkBytes)
	}
	for _, w := range s.walks {
		if w.Hierarchies()[0].Config().L3.SizeBytes >= 32<<20 {
			t.Errorf("the scratch kept a 1-core hierarchy set of %d bytes", w.Bytes())
		}
	}
	t.Logf("scratch: %+v", st)
}

// TestFuseAndCompileIntoRecycledStorage: a fused sample half built on the
// columns of another application's half, and an op column compiled into one
// left by another trace, equal fresh builds.
func TestFuseAndCompileIntoRecycledStorage(t *testing.T) {
	s := new(Scratch)
	var ops []uint32
	all := apps.All()
	for i, app := range all {
		other := all[(i+1)%len(all)]
		s.ReleaseFused(FuseSample(BuildSampleWindow(other, 9000, 1000, 3), other, 128, 3))
		st := BuildSampleWindow(app, 6000, 2000, 1)
		for _, vec := range tableIWidths {
			want := FuseSample(st, app, vec, 1)
			got := s.FuseSample(st, app, vec, 1)
			if got.WarmOps != nil || !slices.Equal(got.Meta, want.Meta) || !slices.Equal(got.Deps, want.Deps) ||
				!slices.Equal(got.SampleOps, want.SampleOps) || got.Counts != want.Counts {
				t.Fatalf("%s %d bits: a half fused on recycled columns differs from a fresh one", app.Name, vec)
			}
			hrt := WalkCaches(FuseScalarTrace(BuildScalarTrace(app, 6000, 2000, 1), app, vec, 1), tableICacheConfigs(vec)[:1])[0]
			fresh, _ := CombineAnnotation(want, hrt)
			ann, ok := CombineAnnotationInto(ops, got, hrt)
			if !ok || !slices.Equal(ann.Ann.Ops, fresh.Ann.Ops) || ann.Ann.Counts != fresh.Ann.Counts ||
				ann.Ann.L2 != fresh.Ann.L2 || ann.HierCfg != fresh.HierCfg {
				t.Fatalf("%s %d bits: an annotation compiled into a recycled column differs from a fresh one", app.Name, vec)
			}
			if len(ops) > 0 && cap(ops) >= len(got.Meta) && &ann.Ann.Ops[0] != &ops[:1][0] {
				t.Fatalf("%s %d bits: CombineAnnotationInto allocated although the column had room", app.Name, vec)
			}
			ops = ann.Ann.Ops
			if want := cpu.Compile(got.Deps, got.Meta, hrt.Levels); !slices.Equal(cpu.CompileInto(ops, got.Deps, got.Meta, hrt.Levels), want) {
				t.Fatalf("%s %d bits: CompileInto over its own previous output differs from Compile", app.Name, vec)
			}
			s.ReleaseFused(got)
		}
	}
	if st := s.Stats(); st.Halves.Reused == 0 {
		t.Errorf("no half was fused on recycled columns: %+v", st)
	}
}

// TestColdPassChunkBytes pins the chunk buffers' sizing on the ring
// replicas' fidelity (20 000 sample after 100 000 warm-up micro-ops): the
// first buffer holds 65 536 micro-ops and the second only the 34 464 left
// and the block the first stopped short of, so one LULESH pass at one width
// over one 64-core configuration allocates under 5.0 MB (≈ 4.5 MB: the
// buffers' 3.2 MB, the window, the half and one hierarchy) — a second full
// 65 536-micro-op buffer (2 MiB) would take it over.
func TestColdPassChunkBytes(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation pins skip under -race")
	}
	const sample, warmup = 20000, 100000
	cfg := baseCfg()
	cfg.SampleInstrs, cfg.WarmupInstrs = sample, warmup
	p := ColdPass{App: apps.LULESH(), Sample: sample, Warmup: warmup, Seed: 1,
		Widths: []WidthWalk{{VectorBits: 512, Configs: []Config{cfg}}}}
	p.Run() // warms the fuser's and generator's package-level state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.Run()
	runtime.ReadMemStats(&after)
	const bound = 5.0e6
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) >= bound {
		t.Errorf("one 20 000 / 100 000 pass allocated %.2f MB, want under %.1f MB", float64(got)/1e6, bound/1e6)
	} else {
		t.Logf("one 20 000 / 100 000 pass allocated %.2f MB", float64(got)/1e6)
	}
}

// FuzzColdPassReuseMatchesReference is FuzzColdPassMatchesReference on a
// scratch an unrelated pass used first — another application, seed,
// fidelity, chunk length and pair of widths over the same configurations —
// and released its window and halves to: the pass must take that storage and
// still equal the fresh whole-window reference (window, halves and tables).
func FuzzColdPassReuseMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(3000), uint16(9000), uint8(0), uint16(299))
	f.Add(uint8(2), uint64(9), uint16(7999), uint16(1), uint8(1), uint16(0))
	f.Add(uint8(4), uint64(3), uint16(10), uint16(15999), uint8(2), uint16(65535))
	f.Add(uint8(1), uint64(5), uint16(500), uint16(2000), uint8(3), uint16(4095))
	all := apps.All()
	widths := []int{128, 256, 512, 2048}
	f.Fuzz(func(t *testing.T, app uint8, seed uint64, sample, warmup uint16, width uint8, chunk uint16) {
		s := new(Scratch)
		first := coldPassOf(all[(int(app)+1)%len(all)], int64((sample+4000)%8000)+1, int64((warmup+8000)%16000)+1,
			[]int{widths[(int(width)+2)%len(widths)], widths[(int(width)+3)%len(widths)]})
		first.Seed, first.Scratch = seed+1, s
		st, res := first.run(int(chunk/2) + 1)
		release(s, st, res)

		p := coldPassOf(all[int(app)%len(all)], int64(sample%8000)+1, int64(warmup%16000)+1,
			[]int{widths[int(width)%len(widths)], widths[(int(width)+1)%len(widths)]})
		p.Seed, p.Scratch = seed, s
		checkPassMatchesReference(t, p, int(chunk)+1)
		if st := s.Stats(); st.Hierarchies.Reused == 0 || st.Halves.Reused == 0 {
			t.Fatalf("the second pass drew nothing from the scratch: %+v", st)
		}
	})
}
