package isa_test

import (
	"math/rand"
	"testing"

	"musa/internal/apps"
	"musa/internal/isa"
	"musa/internal/node"
)

// opaque hides a stream's concrete type, forcing the fuser off its slice
// fast path and onto the pulled lookahead.
type opaque struct{ isa.Stream }

// diffFuse drains Fuser and the reference over the same micro-ops, through
// both the slice window and the generic stream path, each drained op by op,
// run by run, and alternating the two, and reports the first op or counter
// on which they differ.
func diffFuse(t testing.TB, instrs []isa.Instr, cfg isa.FuserConfig) {
	t.Helper()
	ref := isa.NewReferenceFuser(isa.NewSliceStream(instrs), cfg)
	want := isa.Collect(ref)
	for _, path := range []struct {
		name string
		src  func() isa.Stream
	}{
		{"slice", func() isa.Stream { return isa.NewSliceStream(instrs) }},
		{"stream", func() isa.Stream { return opaque{isa.NewSliceStream(instrs)} }},
	} {
		for _, drain := range []struct {
			name  string
			drain func(t testing.TB, fu *isa.Fuser) []isa.Instr
		}{
			{"next", func(_ testing.TB, fu *isa.Fuser) []isa.Instr { return isa.Collect(fu) }},
			{"runs", drainRuns},
			{"alternating", drainAlternating},
		} {
			fu := isa.NewFuser(path.src(), cfg)
			got := drain.drain(t, fu)
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("%s path drained %s, cfg %+v: op %d = %v, reference %v",
						path.name, drain.name, cfg, i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s path drained %s, cfg %+v: %d ops, reference %d",
					path.name, drain.name, cfg, len(got), len(want))
			}
			if fu.Stats() != ref.Stats() {
				t.Fatalf("%s path drained %s, cfg %+v: stats %+v, reference %+v",
					path.name, drain.name, cfg, fu.Stats(), ref.Stats())
			}
		}
	}
}

// drainRuns collects a fuser run by run; no run is empty.
func drainRuns(t testing.TB, fu *isa.Fuser) []isa.Instr {
	var out []isa.Instr
	for {
		run, ok := fu.NextRun()
		if !ok {
			return out
		}
		if len(run) == 0 {
			t.Fatal("NextRun returned an empty run")
		}
		out = append(out, run...)
	}
}

// drainAlternating collects a fuser calling Next and NextRun in turn, so a
// run call often finds part of its run handed out already.
func drainAlternating(t testing.TB, fu *isa.Fuser) []isa.Instr {
	var out []isa.Instr
	for i := 0; ; i++ {
		if i%2 == 0 {
			in, ok := fu.Next()
			if !ok {
				return out
			}
			out = append(out, in)
			continue
		}
		run, ok := fu.NextRun()
		if !ok {
			return out
		}
		if len(run) == 0 {
			t.Fatal("NextRun returned an empty run")
		}
		out = append(out, run...)
	}
}

// TestFuserMatchesReferenceOnApplications fuses the five applications' real
// scalar windows (warm window included) at the narrowest, the traced, a
// cross-iteration and the widest width.
func TestFuserMatchesReferenceOnApplications(t *testing.T) {
	for _, app := range apps.All() {
		st := node.BuildScalarTrace(app, 20000, 100000, 1)
		for _, width := range []int{64, 128, 512, 2048} {
			diffFuse(t, st.Instrs, isa.DefaultFuserConfig(width))
		}
	}
}

// randomBlocks builds a stream of basic-block runs shaped to reach every
// branch of the fuser: bodies that drop their tail or grow an instruction the
// first body never had, runs shorter than MinRun, single bodies longer than
// MaxBlock, a block that never repeats its first PC, the same block resuming
// after an interruption, and bodies whose PCs span more than the fuser's
// slot table, so that it numbers their slots through its map.
func randomBlocks(rng *rand.Rand, n int) []isa.Instr {
	classes := []isa.Class{isa.Load, isa.Store, isa.FPAdd, isa.FPFMA, isa.IntALU, isa.Branch}
	var out []isa.Instr
	emit := func(bb, pc uint32, vec bool) {
		in := isa.Instr{
			PC: pc, BB: bb, Class: classes[pc%uint32(len(classes))], Lanes: 1,
			Dep1: int32(len(out) % 7), Vectorizable: vec,
		}
		if in.Class.IsMem() {
			in.Addr, in.Size = uint64(len(out))*8, 8
		}
		out = append(out, in)
	}
	for len(out) < n {
		bb := uint32(rng.Intn(6))
		bodyLen := 1 + rng.Intn(9)
		reps := 1 + rng.Intn(40)
		vecMask := rng.Uint32()
		stride := uint32(1)
		switch rng.Intn(8) {
		case 0: // one huge body: exceeds small MaxBlock settings
			bodyLen, reps = 40+rng.Intn(200), 1
		case 1: // below any MinRun
			reps = 1 + rng.Intn(3)
		case 2: // far beyond the lookahead bound of narrow widths
			reps = 200 + rng.Intn(400)
		case 3: // PCs spanning more than the slot table's 64
			bodyLen, stride = 3+rng.Intn(7), uint32(33+rng.Intn(64))
		}
		ragged, extra, dup := rng.Intn(3) == 0, rng.Intn(3) == 0, rng.Intn(4) == 0
		for r := 0; r < reps; r++ {
			for j := 0; j < bodyLen; j++ {
				if ragged && r%3 == 2 && j == bodyLen-1 && j > 0 {
					continue // this body loses its tail
				}
				pc := bb*64 + uint32(j)*stride
				emit(bb, pc, vecMask>>uint(j)&1 == 1)
				if dup && j == 1 {
					emit(bb, pc, vecMask>>uint(j)&1 == 1) // scalarized lane pair
				}
				if extra && r > 0 && r%4 == 1 && j == 0 {
					emit(bb, bb*64+32+uint32(r%3), r%2 == 0) // PC absent from the first body
				}
			}
		}
	}
	return out[:n]
}

func TestFuserMatchesReferenceOnRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 60; round++ {
		instrs := randomBlocks(rng, 500+rng.Intn(6000))
		for _, width := range []int{64, 128, 512, 2048} {
			diffFuse(t, instrs, isa.DefaultFuserConfig(width))
			diffFuse(t, instrs, isa.FuserConfig{
				WidthBits: width, MinRun: 1 + rng.Intn(8), MaxBlock: 1 + rng.Intn(96),
			})
		}
	}
}

// fuzzInstrs maps one byte to one micro-op: two bits of basic block, three of
// static PC within it, one vectorizable bit and two of class, so a short
// input spells out repeating, ragged and interleaved blocks directly.
func fuzzInstrs(data []byte) []isa.Instr {
	classes := [4]isa.Class{isa.Load, isa.FPAdd, isa.Store, isa.Branch}
	out := make([]isa.Instr, len(data))
	for i, b := range data {
		bb := uint32(b >> 6)
		in := isa.Instr{
			PC: bb*8 + uint32(b>>3&7), BB: bb, Class: classes[b&3], Lanes: 1,
			Dep1: int32(i % 5), Vectorizable: b&4 != 0,
		}
		if in.Class.IsMem() {
			in.Addr, in.Size = uint64(i)*8, 8
		}
		out[i] = in
	}
	return out
}

// FuzzFuserMatchesReference looks for a stream and a configuration on which
// the allocation-free fuser and the reference disagree. The seed corpus under
// testdata/fuzz holds one input per fuser branch.
func FuzzFuserMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, widthSel, minRun, maxBlock uint8) {
		width := []int{64, 128, 256, 512, 1024, 2048}[widthSel%6]
		diffFuse(t, fuzzInstrs(data), isa.FuserConfig{
			WidthBits: width, MinRun: int(minRun % 8), MaxBlock: int(maxBlock % 80),
		})
	})
}

// TestFuserAllocationsDoNotScaleWithRuns fuses a 100 000-instruction window
// of about ten thousand basic-block runs: after the output and scratch
// buffers have grown to the largest run, nothing more is allocated.
func TestFuserAllocationsDoNotScaleWithRuns(t *testing.T) {
	st := node.BuildScalarTrace(apps.LULESH(), 20000, 80000, 1)
	if len(st.Instrs) != 100000 {
		t.Fatalf("window of %d instructions, want 100000", len(st.Instrs))
	}
	var runs int64
	allocs := testing.AllocsPerRun(5, func() {
		fu := isa.NewFuser(isa.NewSliceStream(st.Instrs), isa.DefaultFuserConfig(512))
		for {
			if _, ok := fu.Next(); !ok {
				break
			}
		}
		runs = fu.Stats().Blocks
	})
	if runs < 1000 {
		t.Fatalf("only %d basic-block runs: the window does not exercise the bound", runs)
	}
	if allocs > 40 {
		t.Errorf("%v allocations over %d runs, want O(1) (at most 40)", allocs, runs)
	}
	t.Logf("%v allocations over %d runs", allocs, runs)
}
