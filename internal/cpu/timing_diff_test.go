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

// diffTiming replays one annotation through RunTiming and the reference and
// fails on any field of the result that differs, stall and occupancy sums
// included.
func diffTiming(t testing.TB, cfg cpu.Config, ann cpu.AnnotateResult, lat cpu.LevelLatencies) cpu.Result {
	t.Helper()
	got, want := cpu.RunTiming(cfg, ann, lat), cpu.ReferenceRunTiming(cfg, ann, lat)
	if got != want {
		t.Fatalf("cfg %+v, lat %+v, %d ops:\n got %+v\nwant %+v", cfg, lat, ann.Len(), got, want)
	}
	return got
}

// TestRunTimingMatchesReferenceOnApplications replays the five applications'
// real annotations at the three vector widths of Table I on its four cores,
// each under an unloaded, a loaded and a saturated memory latency.
func TestRunTimingMatchesReferenceOnApplications(t *testing.T) {
	for _, app := range apps.All() {
		for _, bits := range []int{128, 256, 512} {
			ncfg := node.Config{
				Cores: 64, Core: cpu.Medium(), FreqGHz: 2.0, VectorBits: bits,
				L2KBPerCore: 512, L3MBTotal: 64,
				Mem:        dram.Config{Spec: dram.DDR4_2333(), Channels: 4},
				DispatchNs: 100, RTSPolicy: rts.FIFOCentral,
				SampleInstrs: 30000, WarmupInstrs: 60000, Seed: 1,
			}
			a := node.BuildAnnotation(app, ncfg)
			for _, core := range cpu.AllConfigs() {
				for _, mem := range []struct{ ns, ghz float64 }{{55, 1.5}, {140, 2.0}, {900, 3.0}} {
					diffTiming(t, core, a.Ann, cpu.LatenciesFor(a.HierCfg, mem.ns, mem.ghz))
				}
			}
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

// annotationOf packs raw ops the way Annotate does: through PackMeta and
// PackDeps, the only constructors of the two columns, with the aggregates
// counted from the result.
func annotationOf(ops []rawOp) cpu.AnnotateResult {
	ann := cpu.AnnotateResult{
		Deps: make([]uint32, len(ops)),
		Meta: make([]uint32, len(ops)),
	}
	for i, op := range ops {
		var flags uint8
		if op.mispredict {
			flags = cpu.FlagMispredict
		}
		ann.Deps[i] = cpu.PackDeps(int64(i), op.d1, op.d2)
		ann.Meta[i] = cpu.PackMeta(op.class, op.lanes, op.level, flags)
	}
	ann.Counts = cpu.CountMeta(ann.Meta)
	return ann
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
		ann := annotationOf(randomOps(rng, n))
		for k := 0; k < 4; k++ {
			cfg := randomConfig(rng)
			lat := cpu.LevelLatencies{
				L1: int64(1 + rng.Intn(5)), L2: int64(5 + rng.Intn(15)),
				L3: int64(20 + rng.Intn(60)), Mem: int64(80 + rng.Intn(600)),
			}
			res := diffTiming(t, cfg, ann, lat)
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
// restructured timing loop and the reference disagree. The seed corpus under
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
		diffTiming(t, cfg, annotationOf(fuzzOps(data)), lat)
	})
}
