package node

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"musa/internal/apps"
	"musa/internal/isa"
)

// tableIWidths and tableICaches are Table I's vector widths and (L2 KB per
// core, L3 MB) cache configurations.
var (
	tableIWidths = []int{128, 256, 512}
	tableICaches = [][2]int{{256, 32}, {512, 64}, {1024, 96}}
)

// coldPassOf is the cold pass of app at the given fidelity over widths, each
// walking every Table I cache configuration of a node of each core count.
func coldPassOf(app *apps.Profile, sample, warmup int64, widths []int, cores ...int) ColdPass {
	if len(cores) == 0 {
		cores = []int{64}
	}
	p := ColdPass{App: app, Sample: sample, Warmup: warmup, Seed: 1}
	for _, w := range widths {
		walk := WidthWalk{VectorBits: w}
		for _, n := range cores {
			for _, c := range tableICaches {
				cfg := baseCfg()
				cfg.Cores, cfg.VectorBits, cfg.L2KBPerCore, cfg.L3MBTotal = n, w, c[0], c[1]
				cfg.SampleInstrs, cfg.WarmupInstrs = sample, warmup
				walk.Configs = append(walk.Configs, cfg)
			}
		}
		p.Widths = append(p.Widths, walk)
	}
	return p
}

// checkPassMatchesReference runs p cutting its windows into chunks of at
// most chunk micro-ops (more where a block is longer) and compares the sample
// window its checkpoint continues with, every width's fused sample half —
// the pass's, and one streamed from its checkpoint on a fresh scratch — and
// every table with the whole-window reference:
// walkCaches(FuseScalarTrace(BuildScalarTrace(…))).
func checkPassMatchesReference(t testing.TB, p ColdPass, chunk int) (*apps.Checkpoint, []WidthTables) {
	t.Helper()
	full := BuildScalarTrace(p.App, p.Sample, p.Warmup, p.Seed)
	cp, res := p.run(chunk)
	sample := int64(len(full.Instrs)) - full.Warm
	if st := windowFrom(cp, sample); !slices.Equal(st.Instrs, full.Instrs[full.Warm:]) {
		t.Fatalf("%s chunk %d: the pass's checkpoint continues with another window than the full window's sample part", p.App.Name, chunk)
	}
	var widths []int
	for _, w := range p.Widths {
		widths = append(widths, w.VectorBits)
	}
	streamed := NewScratch().fuseSample(cp, sample, p.App, p.Seed, widths, chunk)
	for i, w := range p.Widths {
		ref := FuseScalarTrace(full, p.App, w.VectorBits, p.Seed)
		for _, got := range []*FusedTrace{res[i].Fused, streamed[i]} {
			if !sameHalf(got, ref) {
				t.Fatalf("%s %d bits chunk %d: fused sample half differs from the reference", p.App.Name, w.VectorBits, chunk)
			}
		}
		want := walkCaches(ref, w.Configs)
		for j, hrt := range res[i].Tables {
			if !slices.Equal(hrt.Levels, want[j].Levels) || hrt.L1 != want[j].L1 || hrt.L2 != want[j].L2 ||
				hrt.L3 != want[j].L3 || hrt.MemReads != want[j].MemReads || hrt.MemWrites != want[j].MemWrites ||
				hrt.HierCfg != want[j].HierCfg {
				t.Fatalf("%s %d bits config %d chunk %d: table differs from the reference walk\n got %+v %+v %+v\nwant %+v %+v %+v",
					p.App.Name, w.VectorBits, j, chunk, hrt.L1, hrt.L2, hrt.L3, want[j].L1, want[j].L2, want[j].L3)
			}
		}
	}
	return cp, res
}

// sameHalf reports whether got is a sample half (WarmOps nil) equal to the
// sample half of ref.
func sameHalf(got, ref *FusedTrace) bool {
	return got.WarmOps == nil && slices.Equal(got.Meta, ref.Meta) && slices.Equal(got.Deps, ref.Deps) &&
		slices.Equal(got.SampleOps, ref.SampleOps) && got.Counts == ref.Counts
}

// longestBlock returns the length of the longest run of one basic block in
// the warm window of st.
func longestBlock(st ScalarTrace) int {
	longest, run := 0, 0
	for i, in := range st.Instrs[:st.Warm] {
		if i > 0 && in.BB != st.Instrs[i-1].BB {
			run = 0
		}
		run++
		longest = max(longest, run)
	}
	return longest
}

// TestColdPassMatchesReference is the cold pass against the whole-window
// reference on every application, every Table I width and cache
// configuration at two core counts, with chunks short enough to cut the warm
// window hundreds of times (300 micro-ops: the longest vector loops are
// longer, so a chunk must outgrow its buffer), ten times and five times (the
// production length).
func TestColdPassMatchesReference(t *testing.T) {
	const sample, warmup = 20000, 40000
	grown := false
	for _, app := range apps.All() {
		p := coldPassOf(app, sample, warmup, tableIWidths, 32, 64)
		if longestBlock(BuildScalarTrace(app, sample, warmup, p.Seed)) > 300 {
			grown = true
		}
		for _, chunk := range []int{300, 4096, coldChunk} {
			checkPassMatchesReference(t, p, chunk)
		}
	}
	if !grown {
		t.Error("no application has a warm block longer than 300 micro-ops: the test no longer covers a chunk that outgrows its buffer")
	}
}

// TestCutsOnlyWhereTheBlockChanges is the control of the exactness argument:
// fed a warm window cut at fixed offsets, mid-block, a fuser emits other ops
// than the whole window's, so the cold pass's equality with its reference
// rests on where it cuts.
func TestCutsOnlyWhereTheBlockChanges(t *testing.T) {
	st := BuildScalarTrace(apps.LULESH(), 1000, 20000, 1)
	ref := fuseWarm(st, 512)
	fu := isa.NewFuser(isa.NewSliceStream(nil), isa.DefaultFuserConfig(512))
	var got []WarmOp
	warm := st.Instrs[:st.Warm]
	for len(warm) > 0 {
		n := min(len(warm), 997)
		fu.Feed(warm[:n])
		warm = warm[n:]
		for {
			run, ok := fu.NextRun()
			if !ok {
				break
			}
			for _, in := range run {
				if in.Class.IsMem() {
					got = append(got, WarmOp{Addr: in.Addr, Size: in.Size, Write: in.Class == isa.Store})
				}
			}
		}
	}
	if slices.Equal(got, ref) {
		t.Error("cutting mid-block fused the same ops as the whole window: the test cannot tell a good cut from a bad one")
	}
}

// TestColdPassStages: Stage is called once per width per stage, the fuse
// nested in the walk on the same width, and every stage's end follows it.
func TestColdPassStages(t *testing.T) {
	type event struct {
		end   bool
		stage PassStage
	}
	p := coldPassOf(apps.SPMZ(), 3000, 9000, tableIWidths)
	var mu sync.Mutex
	log := make([][]event, len(p.Widths))
	p.Stage = func(i int, s PassStage) func() {
		mu.Lock()
		log[i] = append(log[i], event{false, s})
		mu.Unlock()
		return func() {
			mu.Lock()
			log[i] = append(log[i], event{true, s})
			mu.Unlock()
		}
	}
	p.Run()
	want := []event{{false, StageWalk}, {false, StageFuse}, {true, StageFuse}, {true, StageWalk}}
	for i, got := range log {
		if !slices.Equal(got, want) {
			t.Errorf("width %d: stages %v, want %v", i, got, want)
		}
	}
}

// TestColdPassBytes pins what streaming saves: one application's cold pass
// at the benchmark's fidelity (120 000 sample after 700 000 warm-up
// micro-ops) over the three Table I widths, nine tables in all, allocates
// less than its warm window alone would take as a slice of isa.Instr.
func TestColdPassBytes(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a full-fidelity pass; allocation pins skip under -race")
	}
	const sample, warmup = 120000, 700000
	p := coldPassOf(apps.LULESH(), sample, warmup, tableIWidths)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.Run()
	runtime.ReadMemStats(&after)
	warmBytes := uint64(warmup) * 32
	if got := after.TotalAlloc - before.TotalAlloc; got >= warmBytes {
		t.Errorf("cold pass allocated %.1f MB, want under the warm window's %.1f MB", float64(got)/1e6, float64(warmBytes)/1e6)
	} else {
		t.Logf("cold pass allocated %.1f MB (warm window %.1f MB)", float64(got)/1e6, float64(warmBytes)/1e6)
	}
}

// FuzzColdPassMatchesReference is the cold pass against the whole-window
// reference on applications, seeds, small fidelities, widths and chunk
// lengths nobody picked: sample window, fused sample halves and every table
// of the three Table I cache configurations of a 64-core node, at two widths
// (the second on a goroutine of its own). The checked-in corpus holds one
// input per chunking case: many cuts with grown buffers, one-micro-op
// chunks, a warm window of one micro-op, a chunk longer than the window.
func FuzzColdPassMatchesReference(f *testing.F) {
	all := apps.All()
	f.Fuzz(func(t *testing.T, app uint8, seed uint64, sample, warmup uint16, width uint8, chunk uint16) {
		widths := []int{128, 256, 512, 2048}
		p := coldPassOf(all[int(app)%len(all)], int64(sample%8000)+1, int64(warmup%16000)+1,
			[]int{widths[int(width)%len(widths)], widths[(int(width)+1)%len(widths)]})
		p.Seed = seed
		checkPassMatchesReference(t, p, int(chunk)+1)
	})
}
