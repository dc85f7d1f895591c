package cpu_test

import (
	"math/rand"
	"testing"

	"musa/internal/apps"
	"musa/internal/cpu"
	"musa/internal/dram"
	"musa/internal/isa"
	"musa/internal/node"
	"musa/internal/rts"
)

// trace is one annotated trace in both of its forms: the PackDeps and
// level-overlaid PackMeta columns the reference reads, and the annotation
// compiled from them that RunTiming reads.
type trace struct {
	deps, meta []uint32
	ann        cpu.AnnotateResult
}

// compiled overlays a hit-rate table on a fused trace both ways: the meta
// column by hand for the reference, the annotation through
// node.CombineAnnotation, the compile path of every sweep.
func compiled(t testing.TB, ft *node.FusedTrace, hrt node.HitRateTable) trace {
	t.Helper()
	a, ok := node.CombineAnnotation(ft, hrt)
	if !ok {
		t.Fatalf("table of %d levels does not fit a trace of %d ops", len(hrt.Levels), len(ft.Meta))
	}
	meta := make([]uint32, len(ft.Meta))
	for i, m := range ft.Meta {
		meta[i] = m | uint32(hrt.Levels[i])<<cpu.MetaLevelShift
	}
	return trace{deps: ft.Deps, meta: meta, ann: a.Ann}
}

// diffTiming replays one trace through RunTiming and the reference and
// fails on any field of the result that differs, stall and occupancy sums
// included.
func diffTiming(t testing.TB, cfg cpu.Config, tr trace, lat cpu.LevelLatencies) cpu.Result {
	t.Helper()
	got, want := cpu.RunTiming(cfg, tr.ann, lat), cpu.ReferenceRunTiming(cfg, tr.deps, tr.meta, tr.ann, lat)
	if got != want {
		t.Fatalf("cfg %+v, lat %+v, %d ops:\n got %+v\nwant %+v", cfg, lat, tr.ann.Len(), got, want)
	}
	return got
}

// appTrace builds one application's real annotation at a Table I width the
// way a sweep does: fuse, walk the caches, compile the overlay.
func appTrace(t testing.TB, app *apps.Profile, bits int) (*node.FusedTrace, node.HitRateTable, trace) {
	ncfg := node.Config{
		Cores: 64, Core: cpu.Medium(), FreqGHz: 2.0, VectorBits: bits,
		L2KBPerCore: 512, L3MBTotal: 64,
		Mem:        dram.Config{Spec: dram.DDR4_2333(), Channels: 4},
		DispatchNs: 100, RTSPolicy: rts.FIFOCentral,
		SampleInstrs: 30000, WarmupInstrs: 60000, Seed: 1,
	}
	ft := node.BuildFusedTrace(app, bits, ncfg.SampleInstrs, ncfg.WarmupInstrs, ncfg.Seed)
	hrt := node.WalkCaches(ft, []node.Config{ncfg})[0]
	return ft, hrt, compiled(t, ft, hrt)
}

// TestRunTimingMatchesReferenceOnApplications replays the five applications'
// real annotations at the three vector widths of Table I on its four cores,
// each under an unloaded, a loaded and a saturated memory latency.
func TestRunTimingMatchesReferenceOnApplications(t *testing.T) {
	for _, app := range apps.All() {
		for _, bits := range []int{128, 256, 512} {
			_, hrt, tr := appTrace(t, app, bits)
			for _, core := range cpu.AllConfigs() {
				for _, mem := range []struct{ ns, ghz float64 }{{55, 1.5}, {140, 2.0}, {900, 3.0}} {
					diffTiming(t, core, tr, cpu.LatenciesFor(hrt.HierCfg, mem.ns, mem.ghz))
				}
			}
		}
	}
}

// TestRunTimingMatchesReferenceOnCorruptLevels overlays real traces with
// tables no cache walk produces — levels 5 to 7, past memory, and non-zero
// levels on non-memory ops — and replays the compiled result against the
// reference on the overlaid meta: an out-of-range level reads as L1 and a
// non-memory op ignores its level, in both.
func TestRunTimingMatchesReferenceOnCorruptLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, app := range apps.All() {
		ft, hrt, _ := appTrace(t, app, 256)
		var sawHigh, sawNonMem bool
		hrt.Levels = make([]uint8, len(ft.Meta))
		for i, m := range ft.Meta {
			hrt.Levels[i] = uint8(rng.Intn(8))
			sawHigh = sawHigh || hrt.Levels[i] > 4 && cpu.MetaClass(m).IsMem()
			sawNonMem = sawNonMem || hrt.Levels[i] != 0 && !cpu.MetaClass(m).IsMem()
		}
		if !sawHigh || !sawNonMem {
			t.Fatalf("%s: the table has no out-of-range memory level (%v) or no levelled non-memory op (%v)",
				app.Name, sawHigh, sawNonMem)
		}
		tr := compiled(t, ft, hrt)
		for _, core := range cpu.AllConfigs() {
			diffTiming(t, core, tr, cpu.LatenciesFor(hrt.HierCfg, 140, 2.0))
		}
	}
}

// TestRunTimingAllocatesNothing pins the replay's state to its stack frame:
// a call on any Table I core makes no heap allocation.
func TestRunTimingAllocatesNothing(t *testing.T) {
	_, hrt, tr := appTrace(t, apps.LULESH(), 512)
	lat := cpu.LatenciesFor(hrt.HierCfg, 140, 2.0)
	for _, core := range cpu.AllConfigs() {
		if allocs := testing.AllocsPerRun(10, func() { cpu.RunTiming(core, tr.ann, lat) }); allocs != 0 {
			t.Errorf("%s: %v allocations per replay, want 0", core.Name, allocs)
		}
	}
}

// rawOp is one micro-op before packing: what a test or the fuzzer chooses.
type rawOp struct {
	class        isa.Class
	lanes, level uint8
	mispredict   bool
	d1, d2       int32
}

// annotationOf packs raw ops the way a sweep does: a fused trace through
// PackMeta and PackDeps, the only constructors of its two columns, with the
// aggregates counted from the result, and a hit-rate table of the ops'
// levels, overlaid and compiled by node.CombineAnnotation.
func annotationOf(t testing.TB, ops []rawOp) trace {
	ft := &node.FusedTrace{Deps: make([]uint32, len(ops)), Meta: make([]uint32, len(ops))}
	hrt := node.HitRateTable{Levels: make([]uint8, len(ops))}
	for i, op := range ops {
		var flags uint8
		if op.mispredict {
			flags = cpu.FlagMispredict
		}
		ft.Deps[i] = cpu.PackDeps(int64(i), op.d1, op.d2)
		ft.Meta[i] = cpu.PackMeta(op.class, op.lanes, 0, flags)
		hrt.Levels[i] = op.level
	}
	ft.Counts = cpu.CountMeta(ft.Meta)
	return compiled(t, ft, hrt)
}

// randomOps draws a stream in one of several regimes so every structure of
// the model saturates somewhere: store bursts for the store buffer, FP and
// integer runs for the two register files, missing loads for the ROB,
// dependence chains, and distances that fall outside the window or before
// the start of the trace.
func randomOps(rng *rand.Rand, n int) []rawOp {
	ops := make([]rawOp, n)
	for i := 0; i < n; {
		regime := rng.Intn(6)
		run := 1 + rng.Intn(300)
		for ; run > 0 && i < n; run, i = run-1, i+1 {
			op := rawOp{lanes: uint8(1 + rng.Intn(8))}
			switch regime {
			case 0:
				op.class = isa.Store
			case 1:
				op.class = isa.FPAdd + isa.Class(rng.Intn(4))
			case 2:
				op.class = []isa.Class{isa.IntALU, isa.IntMul, isa.Branch}[rng.Intn(3)]
			case 3:
				op.class = isa.Load
			default:
				op.class = isa.Class(rng.Intn(int(isa.NumClasses)))
			}
			if op.class.IsMem() {
				op.level = uint8(rng.Intn(8)) // 5..7 are out of range
			}
			op.mispredict = rng.Intn(40) == 0
			switch rng.Intn(8) {
			case 0: // beyond the completion window, often before the trace
				op.d1, op.d2 = int32(500+rng.Intn(200)), int32(rng.Intn(70000))
			case 1:
				op.d1, op.d2 = -int32(rng.Intn(5)), 1
			case 2, 3:
				op.d1 = 1 // chain
			default:
				op.d1, op.d2 = int32(rng.Intn(12)), int32(rng.Intn(40))
			}
			ops[i] = op
		}
	}
	return ops
}

func randomConfig(rng *rand.Rand) cpu.Config {
	return cpu.Config{
		Name: "random", ROB: 1 + rng.Intn(512), IssueWidth: 1 + rng.Intn(10),
		StoreBuffer: 1 + rng.Intn(160),
		ALUs:        1 + rng.Intn(cpu.MaxPorts), FPUs: 1 + rng.Intn(cpu.MaxPorts),
		IntRF: 1 + rng.Intn(220), FPRF: 1 + rng.Intn(220),
	}
}

func TestRunTimingMatchesReferenceOnRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var sawROB, sawSB, sawRF, sawWide, sawNarrow bool
	for round := 0; round < 400; round++ {
		n := rng.Intn(4000)
		switch round % 8 {
		case 0:
			n = 0
		case 1:
			n = 1 + rng.Intn(40) // shorter than most ROBs
		}
		tr := annotationOf(t, randomOps(rng, n))
		for k := 0; k < 4; k++ {
			cfg := randomConfig(rng)
			lat := cpu.LevelLatencies{
				L1: int64(1 + rng.Intn(5)), L2: int64(5 + rng.Intn(15)),
				L3: int64(20 + rng.Intn(60)), Mem: int64(80 + rng.Intn(600)),
			}
			res := diffTiming(t, cfg, tr, lat)
			sawROB = sawROB || res.StallROB > 0
			sawSB = sawSB || res.StallSB > 0
			sawRF = sawRF || res.StallRF > 0
			if max(cfg.ALUs, cfg.FPUs) > 5 {
				sawWide = true
			} else {
				sawNarrow = true
			}
		}
	}
	if !sawROB || !sawSB || !sawRF || !sawWide || !sawNarrow {
		t.Errorf("random trials left a path untested: ROB %v SB %v RF %v, more than five ports %v, at most five %v",
			sawROB, sawSB, sawRF, sawWide, sawNarrow)
	}
}

// fuzzOps maps three bytes to one micro-op: class, cache level (0..7, so out
// of range included) and a mispredict bit in the first, one producer distance
// in each of the other two — small as written below 128, in steps of eight up
// to 1016 (past the 512-op window) above.
func fuzzOps(data []byte) []rawOp {
	dist := func(b byte) int32 {
		if b < 128 {
			return int32(b)
		}
		return int32(b-128) * 8
	}
	ops := make([]rawOp, len(data)/3)
	for i := range ops {
		b := data[3*i]
		ops[i] = rawOp{
			class: isa.Class((b & 15) % byte(isa.NumClasses)), lanes: 1,
			level: b >> 4 & 7, mispredict: b>>7 == 1,
			d1: dist(data[3*i+1]), d2: dist(data[3*i+2]),
		}
	}
	return ops
}

// FuzzRunTimingMatchesReference looks for a stream and a core on which the
// compiled timing replay — compile and loop — and the reference disagree. The seed corpus under
// testdata/fuzz holds one input per structure of the model: each ring
// saturating, both sides of the five-port boundary, a flush, dead distances.
func FuzzRunTimingMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, rob uint16, width, sb, alus, fpus, intRF, fpRF uint8, memLat uint16) {
		cfg := cpu.Config{
			Name: "fuzz", ROB: 1 + int(rob%512), IssueWidth: 1 + int(width%10),
			StoreBuffer: 1 + int(sb%160),
			ALUs:        1 + int(alus%cpu.MaxPorts), FPUs: 1 + int(fpus%cpu.MaxPorts),
			IntRF: 1 + int(intRF%220), FPRF: 1 + int(fpRF%220),
		}
		lat := cpu.LevelLatencies{L1: 4, L2: 11, L3: 68, Mem: 68 + int64(memLat%2000)}
		diffTiming(t, cfg, annotationOf(t, fuzzOps(data)), lat)
	})
}
