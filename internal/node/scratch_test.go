package node

import (
	"runtime"
	"slices"
	"testing"

	"musa/internal/apps"
	"musa/internal/cache"
	"musa/internal/cpu"
	"musa/internal/isa"
	"musa/internal/xrand"
)

// release hands a pass's fused halves and tables back to s, as a sweep
// without an artifact provider does once the application's last group is
// done.
func release(s *Scratch, res []WidthTables) {
	for _, w := range res {
		s.ReleaseFused(w.Fused)
		for _, hrt := range w.Tables {
			s.ReleaseTable(hrt)
		}
	}
}

// TestScratchPassesMatchReference drives one Scratch through a shuffled
// sequence of cold passes — every application, each Table I width, nodes of
// 1, 32 and 64 cores under the three Table I caches, two fidelities and
// chunks of 300, 4 096 and coldChunk micro-ops — releasing each pass's
// halves and tables before the next, and compares every pass with
// its fresh whole-window reference. Passes over the same configurations reset the
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
	s := NewScratch()
	for _, ps := range passes {
		p := coldPassOf(ps.app, ps.sample, ps.warmup, ps.widths, ps.cores...)
		p.Scratch = s
		_, res := checkPassMatchesReference(t, p, ps.chunk)
		release(s, res)
	}
	st := s.Stats()
	for _, k := range []ScratchKind{ScratchHalves, ScratchTables, ScratchStreams, ScratchChunks, ScratchHierarchies} {
		if c := st[k]; c.Reused == 0 {
			t.Errorf("%s: %+v, none reused: the sequence does not exercise recycled storage", k, c)
		}
	}
	if _, kept := s.walks.held(); kept.Bytes > maxScratchWalkBytes {
		t.Errorf("the scratch keeps %d bytes of cache arrays, over its bound of %d", kept.Bytes, maxScratchWalkBytes)
	}
	for _, w := range s.walks.vals {
		if w.Hierarchies()[0].Config().L3.SizeBytes >= 32<<20 {
			t.Errorf("the scratch kept a 1-core hierarchy set of %d bytes", w.Bytes())
		}
	}
	t.Logf("scratch: %+v", st)
}

// TestWalkSetBytes pins what keeping a hierarchy set costs: 4 bytes a line,
// its shared L1's and every hierarchy's L2 and L3. One width's full-grid
// 1-core set — the three Table I caches of a 1-core node, whose L3
// partitions are the whole 32, 64 and 64 MB (96 rounded down to a power of
// two) — is 10 602 496 bytes, over maxScratchWalkBytes, so the scratch never
// keeps it; a 64-core set is 280 576, and three widths of it fit.
func TestWalkSetBytes(t *testing.T) {
	const oneCore, sixtyFourCores = 10_602_496, 280_576
	for cores, want := range map[int]int64{1: oneCore, 64: sixtyFourCores} {
		var cfgs []Config
		for _, c := range tableICaches {
			cfg := baseCfg()
			cfg.Cores, cfg.VectorBits, cfg.L2KBPerCore, cfg.L3MBTotal = cores, 256, c[0], c[1]
			cfgs = append(cfgs, cfg)
		}
		walk := cache.NewSharedL1(walkConfigs(cfgs))
		lines := int64(walk.Hierarchies()[0].Config().L1.SizeBytes / cache.LineBytes)
		for _, h := range walk.Hierarchies() {
			hc := h.Config()
			lines += int64((hc.L2.SizeBytes + hc.L3.SizeBytes) / cache.LineBytes)
		}
		if got := walk.Bytes(); got != 4*lines || got != want {
			t.Errorf("%d cores: a set of %d lines is %d bytes, want 4 a line (%d)", cores, lines, got, want)
		}
	}
	if oneCore <= maxScratchWalkBytes || 3*sixtyFourCores > maxScratchWalkBytes {
		t.Errorf("the %d-byte bound keeps a 1-core set or not three widths' 64-core sets", maxScratchWalkBytes)
	}
}

// TestFuseAndCompileIntoRecycledStorage: a fused sample half streamed from
// a checkpoint onto the columns of another application's half, and an op
// column compiled into one left by another trace, equal fresh builds.
func TestFuseAndCompileIntoRecycledStorage(t *testing.T) {
	s := NewScratch()
	var ops []uint32
	all := apps.All()
	for i, app := range all {
		other := all[(i+1)%len(all)]
		s.ReleaseFused(FuseSample(BuildSampleWindow(other, 9000, 1000, 3), other, 128, 3))
		st := BuildSampleWindow(app, 6000, 2000, 1)
		cp := s.SampleCheckpoint(app, 6000, 2000, 1)
		for _, vec := range tableIWidths {
			want := FuseSample(st, app, vec, 1)
			got := s.FuseSample(cp, 6000, app, 1, []int{vec})[0]
			if !sameHalf(got, want) {
				t.Fatalf("%s %d bits: a half fused on recycled columns differs from a fresh one", app.Name, vec)
			}
			hrt := walkCaches(FuseScalarTrace(BuildScalarTrace(app, 6000, 2000, 1), app, vec, 1), tableICacheConfigs(vec)[:1])[0]
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
	if st := s.Stats(); st[ScratchHalves].Reused == 0 {
		t.Errorf("no half was fused on recycled columns: %+v", st)
	}
}

// TestColdPassChunkBytes pins the chunk buffers' sizing on the ring
// replicas' fidelity (20 000 sample after 100 000 warm-up micro-ops), on no
// scratch: each buffer holds coldChunk (8 192) micro-ops, so one LULESH pass
// at one width over one 64-core configuration allocates under 1.4 MB
// (≈ 1.14 MB: the buffers' 0.52 MB, the half, one hierarchy, the table and
// the generator; 1.78 MB while the pass generated a 0.64 MB sample window)
// — at 65 536 micro-ops the buffers alone took 3.2 MB and the pass 4.5 MB.
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
	const bound = 1.4e6
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) >= bound {
		t.Errorf("one 20 000 / 100 000 pass allocated %.2f MB, want under %.1f MB", float64(got)/1e6, bound/1e6)
	} else {
		t.Logf("one 20 000 / 100 000 pass allocated %.2f MB", float64(got)/1e6)
	}
}

// TestColdPassOnScratchAllocs pins what a steady-state cold pass allocates:
// after two passes through one scratch over the same configurations — LULESH
// at the benchmark's fidelity (120 000 sample after 700 000 warm-up
// micro-ops), the three Table I widths, nine tables — each releasing its
// halves and tables back, a third pass draws its generator, chunk buffers,
// fusers, hierarchies, halves and level columns from the scratch and
// allocates under 0.1 MB (≈ 0.006 MB in about 30 objects: the goroutines,
// their channels, the per-width slices and the checkpoint; 0.07 MB while
// each width built a new fuser; a pass on no scratch allocates 8.3 MB).
func TestColdPassOnScratchAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("three full-fidelity passes; allocation pins skip under -race")
	}
	p := coldPassOf(apps.LULESH(), 120000, 700000, tableIWidths)
	p.Scratch = NewScratch()
	for range 2 {
		_, res := p.Run()
		release(p.Scratch, res)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, res := p.Run()
	runtime.ReadMemStats(&after)
	release(p.Scratch, res)
	const bound = 0.1e6
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) >= bound {
		t.Errorf("a pass on a warm scratch allocated %.3f MB, want under %.1f MB", float64(got)/1e6, bound/1e6)
	} else {
		t.Logf("a pass on a warm scratch allocated %.3f MB (%d objects)", float64(got)/1e6, after.Mallocs-before.Mallocs)
	}
	if st := p.Scratch.Stats(); st[ScratchHalves].New != 3 || st[ScratchTables].New != 9 ||
		st[ScratchStreams].New != 1 || st[ScratchChunks].New != 2 || st[ScratchHierarchies].New != 3 {
		t.Errorf("the second and third passes allocated columns: %+v", st)
	}
}

// FuzzColdPassReuseMatchesReference is FuzzColdPassMatchesReference on a
// scratch an unrelated pass used first — another application, seed,
// fidelity, chunk length and pair of widths over the same configurations —
// and released its generator, chunk buffers, hierarchies, halves and tables
// to: the pass must run on that storage (a recycled generator and
// hierarchies always; the columns when they have room, grown when not) and
// still equal the fresh whole-window reference (checkpoint, halves and
// tables).
func FuzzColdPassReuseMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(3000), uint16(9000), uint8(0), uint16(299))
	f.Add(uint8(2), uint64(9), uint16(7999), uint16(1), uint8(1), uint16(0))
	f.Add(uint8(4), uint64(3), uint16(10), uint16(15999), uint8(2), uint16(65535))
	f.Add(uint8(1), uint64(5), uint16(500), uint16(2000), uint8(3), uint16(4095))
	all := apps.All()
	widths := []int{128, 256, 512, 2048}
	f.Fuzz(func(t *testing.T, app uint8, seed uint64, sample, warmup uint16, width uint8, chunk uint16) {
		s := NewScratch()
		first := coldPassOf(all[(int(app)+1)%len(all)], int64((sample+4000)%8000)+1, int64((warmup+8000)%16000)+1,
			[]int{widths[(int(width)+2)%len(widths)], widths[(int(width)+3)%len(widths)]})
		first.Seed, first.Scratch = seed+1, s
		_, res := first.run(int(chunk/2) + 1)
		release(s, res)
		if h := s.Held(); h[ScratchStreams].Values != 1 || h[ScratchHierarchies].Values != 2 || h[ScratchTables].Values != 6 ||
			h[ScratchHalves].Values != 2 || h[ScratchChunks].Values == 0 {
			t.Fatalf("the first pass left %+v in the scratch", h)
		}

		p := coldPassOf(all[int(app)%len(all)], int64(sample%8000)+1, int64(warmup%16000)+1,
			[]int{widths[int(width)%len(widths)], widths[(int(width)+1)%len(widths)]})
		p.Seed, p.Scratch = seed, s
		checkPassMatchesReference(t, p, int(chunk)+1)
		if st := s.Stats(); st[ScratchHierarchies].Reused == 0 || st[ScratchStreams].Reused == 0 {
			t.Fatalf("the second pass drew no generator or hierarchies from the scratch: %+v", st)
		}

	})
}

// TestScratchShelfPolicy pins the draw and release rules every kind shares:
// the smallest value with room for a build, else the largest; the largest
// for a draw that cannot tell its need (anyRoom); nothing from an empty
// shelf; hierarchy sets only on an exact configuration match; EndRun's drop
// order under MaxScratchKeepBytes (halves, level columns, op columns,
// hierarchies, generators, chunk buffers, fusers); and the drawn
// rule, which lets go of a hierarchy set no pass drew back since the last
// EndRun.
func TestScratchShelfPolicy(t *testing.T) {
	for _, c := range []struct {
		name      string
		caps      []int
		need      int64
		wantCap   int
		wantReuse bool
	}{
		{"smallest with room", []int{10, 50, 30, 40}, 25, 30, true},
		{"exact room", []int{10, 50, 30, 40}, 40, 40, true},
		{"largest when none has room", []int{10, 50, 30, 40}, 60, 50, false},
		{"anyRoom takes the largest", []int{10, 50, 30, 40}, anyRoom, 50, true},
		{"empty shelf", nil, 1, 0, false},
	} {
		s := NewScratch()
		for _, n := range c.caps {
			s.ReleaseTable(HitRateTable{Levels: make([]uint8, n)})
		}
		col, reused := take(s, &s.tables, c.need, nil)
		if cap(col) != c.wantCap || reused != c.wantReuse {
			t.Errorf("%s: drew a column of capacity %d (reused %v), want %d (%v)", c.name, cap(col), reused, c.wantCap, c.wantReuse)
		}
		want := ScratchCount{New: 1}
		if c.wantReuse {
			want = ScratchCount{Reused: 1}
		}
		if st := s.Stats(); st[ScratchTables] != want || s.Held()[ScratchTables].Values != max(len(c.caps)-1, 0) {
			t.Errorf("%s: counted %+v and holds %+v after the draw", c.name, st[ScratchTables], s.Held()[ScratchTables])
		}
	}

	// Hierarchy sets: only the set over exactly the drawn configurations.
	cfgs := tableICacheConfigs(128)[6:] // the three 64-core nodes
	s := NewScratch()
	a, _ := s.walk(cfgs[:1])
	b, _ := s.walk(cfgs[1:])
	put(s, &s.walks, keptWalk{a, false})
	put(s, &s.walks, keptWalk{b, false})
	if w, drawn := s.walk(cfgs[1:]); w != b || !drawn {
		t.Errorf("a draw over the second set's configurations did not take that set")
	}
	for _, other := range [][]Config{cfgs, cfgs[2:], cfgs[1:2]} {
		if w, drawn := s.walk(other); w == a || drawn {
			t.Errorf("a draw over %d other configurations took a set built for different ones", len(other))
		}
	}
	if h := s.Held()[ScratchHierarchies]; h.Values != 1 {
		t.Errorf("the scratch holds %d hierarchy sets, want the one no draw matched", h.Values)
	}

	// The drawn rule: a set outlives EndRun only if a pass drew it back
	// since the previous EndRun, and then only until the next one.
	s = NewScratch()
	put(s, &s.walks, keptWalk{a, false})
	put(s, &s.walks, keptWalk{b, true})
	s.EndRun()
	if len(s.walks.vals) != 1 || s.walks.vals[0].SharedL1 != b || s.walks.vals[0].drawn {
		t.Errorf("EndRun kept %d sets, want the drawn one, its flag cleared", len(s.walks.vals))
	}
	s.EndRun()
	if len(s.walks.vals) != 0 {
		t.Errorf("a set no pass drew back since the last EndRun outlived it")
	}

	// The trim: 30 MiB held is 6 MiB over the bound, which the two halves
	// (4 MiB) and then the level column (8 MiB) cover; the op column and the
	// chunk buffer, later in the order, stay.
	const mib = 1 << 20
	s = NewScratch()
	s.ReleaseOps(make([]uint32, 8*mib/4))
	put(s, &s.chunks, make([]isa.Instr, 0, 10*mib/32))
	s.ReleaseTable(HitRateTable{Levels: make([]uint8, 8*mib)})
	s.ReleaseFused(&FusedTrace{Meta: make([]uint32, 2*mib/4)})
	s.ReleaseFused(&FusedTrace{Meta: make([]uint32, 2*mib/4)})
	s.EndRun()
	h := s.Held()
	if h[ScratchHalves].Values != 0 || h[ScratchTables].Values != 0 || h[ScratchOps].Values != 1 || h[ScratchChunks].Values != 1 {
		t.Errorf("EndRun over the bound kept %+v, want the op column and the chunk buffer only", h)
	}
	if h.Bytes() != 18*mib {
		t.Errorf("EndRun left %d bytes, want %d", h.Bytes(), 18*mib)
	}
}

// TestScratchShelfReuseAllocs pins a take/put cycle of each kind on a
// primed scratch at zero allocations: no draw or release boxes a value or
// allocates a closure.
func TestScratchShelfReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins skip under -race")
	}
	s := NewScratch()
	hcfgs := walkConfigs(tableICacheConfigs(128)[6:7])
	s.ReleaseFused(&FusedTrace{Deps: make([]uint32, 100), Meta: make([]uint32, 100)})
	s.ReleaseOps(make([]uint32, 100))
	s.ReleaseTable(HitRateTable{Levels: make([]uint8, 100)})
	put(s, &s.streams, apps.NewDetailedStream(apps.LULESH(), 1))
	put(s, &s.chunks, make([]isa.Instr, 0, 100))
	put(s, &s.walks, keptWalk{cache.NewSharedL1(hcfgs), false})
	s.releaseFuser(s.fuser(256))
	primed := s.Stats()
	for k, cycle := range [NumScratchKinds]func(){
		ScratchHalves:  func() { v, _ := take(s, &s.halves, 50, nil); put(s, &s.halves, v) },
		ScratchOps:     func() { put(s, &s.ops, s.Ops()) },
		ScratchTables:  func() { v, _ := take(s, &s.tables, 50, nil); put(s, &s.tables, v) },
		ScratchStreams: func() { v, _ := take(s, &s.streams, anyRoom, nil); put(s, &s.streams, v) },
		ScratchChunks:  func() { v, _ := take(s, &s.chunks, 50, nil); put(s, &s.chunks, v) },
		ScratchHierarchies: func() {
			same := func(w keptWalk) bool { return w.Hierarchies()[0].Config() == hcfgs[0] }
			v, _ := take(s, &s.walks, 0, same)
			put(s, &s.walks, v)
		},
		ScratchFusers: func() { s.releaseFuser(s.fuser(512)) },
	} {
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("a take/put cycle of %s allocates %v times, want 0", ScratchKind(k), n)
		}
	}
	for k, c := range s.Stats() {
		if c.Reused == 0 || c.New != primed[k].New {
			t.Errorf("%s: %+v, want every draw reused", ScratchKind(k), c)
		}
	}
}

// TestFullGridWalkAllocatesTouchedSets pins what a full-grid walk pays for
// its caches: a LULESH width at the benchmark's fidelity (120 000 sample
// after 700 000 warm-up micro-ops) walked through all nine Table I
// configurations reserves 11.3 MB of cache arrays — its 1-core L3 partitions
// are the whole 32–96 MB — but allocates only the blocks of sets its lines
// reach: at most 5 MB (≈ 4.3 MB).
func TestFullGridWalkAllocatesTouchedSets(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a full-fidelity walk; allocation pins skip under -race")
	}
	app := apps.LULESH()
	st := BuildScalarTrace(app, 120000, 700000, 1)
	for _, vec := range tableIWidths {
		ft := FuseScalarTrace(st, app, vec, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		walk := cache.NewSharedL1(walkConfigs(tableICacheConfigs(vec)))
		for _, op := range ft.WarmOps {
			walk.Access(op.Addr, int(op.Size), op.Write)
		}
		for _, op := range ft.SampleOps {
			walk.Access(op.Addr, int(op.Size), op.Write)
		}
		runtime.ReadMemStats(&after)
		const bound = 5e6
		got, reserved := after.TotalAlloc-before.TotalAlloc, walk.Bytes()
		if reserved < 11e6 || float64(got) > bound {
			t.Errorf("%d bits: the walk allocated %.2f MB of the %.2f MB it reserves, want at most %.0f MB",
				vec, float64(got)/1e6, float64(reserved)/1e6, bound/1e6)
		} else {
			t.Logf("%d bits: the walk allocated %.2f MB of the %.2f MB it reserves", vec, float64(got)/1e6, float64(reserved)/1e6)
		}
	}
}
