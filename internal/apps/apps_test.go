package apps

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"musa/internal/isa"
	"musa/internal/rts"
	"musa/internal/trace"
)

func TestAllProfilesValid(t *testing.T) {
	apps := All()
	if len(apps) != 5 {
		t.Fatalf("got %d applications, want 5", len(apps))
	}
	for _, p := range apps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		// Region i starts at (i+1) GiB: every built-in address lies below
		// 8 GiB, far inside cache.AddressLimit.
		rs := p.Locality.Regions
		if end := int64(len(rs))<<30 + rs[len(rs)-1].Bytes; end > 8<<30 {
			t.Errorf("%s: the last region ends at %#x, past 8 GiB", p.Name, end)
		}
	}
}

func TestByName(t *testing.T) {
	// The table behind ByName and IsBuiltin must cover exactly All().
	if len(builtins) != len(All()) {
		t.Errorf("%d constructors for %d applications", len(builtins), len(All()))
	}
	for _, want := range All() {
		p, err := ByName(want.Name)
		if err != nil || !reflect.DeepEqual(p, want) {
			t.Errorf("ByName(%q) = %v, %v; want the profile All() lists", want.Name, p, err)
		}
		if q, _ := ByName(want.Name); q == p {
			t.Errorf("ByName(%q) returned a shared pointer: callers may mutate their profile", want.Name)
		}
		if !IsBuiltin(want.Name) {
			t.Errorf("IsBuiltin(%q) = false", want.Name)
		}
	}
	if _, err := ByName("doom"); err == nil || IsBuiltin("doom") || IsBuiltin("") {
		t.Error("unknown app accepted")
	}
}

func TestMixHelpers(t *testing.T) {
	for _, p := range All() {
		if f := p.Mix.FPFrac(); f <= 0.1 || f >= 0.6 {
			t.Errorf("%s FP fraction = %v, implausible", p.Name, f)
		}
		if m := p.Mix.MemFrac(); m <= 0.15 || m >= 0.6 {
			t.Errorf("%s mem fraction = %v, implausible", p.Name, m)
		}
	}
}

func TestRegionGraphDeterministic(t *testing.T) {
	p := Hydro()
	a := p.RegionGraph(0, 42)
	b := p.RegionGraph(0, 42)
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatal("task counts differ")
	}
	for i := range a.Tasks {
		if a.Tasks[i].DurationNs != b.Tasks[i].DurationNs {
			t.Fatalf("task %d differs across identical seeds", i)
		}
	}
	c := p.RegionGraph(0, 43)
	same := true
	for i := range a.Tasks {
		if a.Tasks[i].DurationNs != c.Tasks[i].DurationNs {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestRegionGraphWorkMatchesSpec(t *testing.T) {
	for _, p := range All() {
		g := p.RegionGraph(0, 7)
		spec := p.Regions[0]
		wantNs := spec.LaneWork() / RefLaneThroughput * 1e9
		work := g.SerialNs
		for _, task := range g.Tasks {
			work += task.DurationNs
		}
		if math.Abs(work-wantNs)/wantNs > 0.15 {
			t.Errorf("%s: region work %v ns, want ~%v ns", p.Name, work, wantNs)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestBurstTraceValid(t *testing.T) {
	for _, p := range All() {
		b := BurstTrace(p, 16, 1)
		if err := b.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		s := b.Summarize()
		if s.Ranks != 16 {
			t.Errorf("%s: %d ranks", p.Name, s.Ranks)
		}
		wantCompute := 16 * p.Iterations * len(p.Regions)
		// Each halo exchange is one combined sendrecv event per message.
		gotCompute := s.Events - s.P2PMessages - s.Collectives
		if gotCompute != wantCompute {
			t.Errorf("%s: %d compute events, want %d", p.Name, gotCompute, wantCompute)
		}
		if s.Collectives == 0 {
			t.Errorf("%s: no collectives", p.Name)
		}
	}
}

func TestBurstTraceRankImbalancePersistent(t *testing.T) {
	p := LULESH()
	b := BurstTrace(p, 8, 3)
	// A rank's compute durations must be identical across iterations
	// (persistent spatial imbalance).
	for _, rt := range b.Ranks {
		var durs []float64
		for _, ev := range rt.Events {
			if ev.Kind == trace.EvCompute {
				durs = append(durs, ev.DurationNs)
			}
		}
		for _, d := range durs[1:] {
			if d != durs[0] {
				t.Fatalf("rank %d durations vary across iterations", rt.Rank)
			}
		}
	}
	// But they must vary across ranks.
	d0 := b.Ranks[0].Events[0].DurationNs
	varies := false
	for _, rt := range b.Ranks[1:] {
		if rt.Events[0].DurationNs != d0 {
			varies = true
		}
	}
	if !varies {
		t.Error("no rank-level imbalance in LULESH trace")
	}
}

func TestDetailedStreamDeterministic(t *testing.T) {
	p := SPMZ()
	a := isa.Collect(&isa.LimitStream{S: NewDetailedStream(p, 5), N: 2000})
	b := isa.Collect(&isa.LimitStream{S: NewDetailedStream(p, 5), N: 2000})
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instr %d differs across identical seeds", i)
		}
	}
}

// TestDetailedStreamSkip: skipping n micro-ops, in one call or several, leaves
// the stream where n calls of Next leave it.
func TestDetailedStreamSkip(t *testing.T) {
	p := BTMZ()
	all := isa.Collect(&isa.LimitStream{S: NewDetailedStream(p, 5), N: 3000})
	for _, skips := range [][]int64{{0}, {1}, {2500}, {7, 0, 1200, 1}} {
		s := NewDetailedStream(p, 5)
		var at int64
		for _, n := range skips {
			s.Skip(n)
			at += n
		}
		for i := at; i < at+400; i++ {
			if in, _ := s.Next(); in != all[i] {
				t.Fatalf("after skipping %v: micro-op %d differs", skips, i)
			}
		}
	}
}

// TestDetailedStreamReadMatchesNext: bulk reads in chunks of odd sizes —
// one micro-op, less than a block, several blocks — interleaved with Next and
// Skip, hand out exactly the sequence Next alone does, on every application.
func TestDetailedStreamReadMatchesNext(t *testing.T) {
	const n = 20000
	for _, p := range All() {
		all := isa.Collect(&isa.LimitStream{S: NewDetailedStream(p, 3), N: n})
		s := NewDetailedStream(p, 3)
		s.Skip(37)
		var at int
		check := func(got []isa.Instr, how string) {
			for i, in := range got {
				if in != all[37+at+i] {
					t.Fatalf("%s: %s at micro-op %d differs from Next's", p.Name, how, 37+at+i)
				}
			}
			at += len(got)
		}
		for i := 0; 37+at < n-1000; i++ {
			chunk := make([]isa.Instr, []int{1, 3, 17, 0, 129, 997}[i%6])
			s.Read(chunk)
			check(chunk, fmt.Sprintf("Read of %d", len(chunk)))
			in, _ := s.Next()
			check([]isa.Instr{in}, "Next after Read")
			if i%4 == 3 {
				s.Skip(5)
				at += 5
			}
		}
	}
}

// TestDetailedStreamResetMatchesNew resets one stream, mid-block after
// thousands of micro-ops of another application, onto every application and
// onto a second seed, and requires it to hand out a fresh stream's sequence
// through Read, Skip and Next alike.
func TestDetailedStreamResetMatchesNew(t *testing.T) {
	const n = 12000
	s := NewDetailedStream(LULESH(), 9)
	s.Skip(7777)
	for _, seed := range []uint64{3, 11} {
		for _, p := range All() {
			s.Reset(p, seed)
			want := isa.Collect(&isa.LimitStream{S: NewDetailedStream(p, seed), N: n})
			got := make([]isa.Instr, 0, n)
			for i := 0; len(got) < n-1100; i++ {
				chunk := make([]isa.Instr, []int{1, 0, 33, 1000}[i%4])
				s.Read(chunk)
				got = append(got, chunk...)
				in, _ := s.Next()
				got = append(got, in)
				if i%3 == 2 {
					s.Skip(9)
					got = append(got, want[len(got):len(got)+9]...)
				}
			}
			if !slices.Equal(got, want[:len(got)]) {
				t.Fatalf("%s seed %d: a reset stream differs from a new one", p.Name, seed)
			}
			s.Skip(int64(501 + seed)) // leave it mid-stream for the next reset
		}
	}
}

func TestDetailedStreamScalarMicroOps(t *testing.T) {
	for _, p := range All() {
		ins := isa.Collect(&isa.LimitStream{S: NewDetailedStream(p, 1), N: 5000})
		for _, in := range ins {
			if in.Lanes != 1 {
				t.Fatalf("%s: non-scalar micro-op in trace", p.Name)
			}
			if in.Class.IsMem() && in.Size == 0 {
				t.Fatalf("%s: memory op without size", p.Name)
			}
		}
	}
}

func TestDetailedStreamVectorWorkShare(t *testing.T) {
	// The share of micro-ops inside vectorizable loops must track VecFrac.
	for _, p := range All() {
		ins := isa.Collect(&isa.LimitStream{S: NewDetailedStream(p, 9), N: 200000})
		vec := 0
		for _, in := range ins {
			if in.Vectorizable {
				vec++
			}
		}
		share := float64(vec) / float64(len(ins))
		// The loop body includes non-vectorizable control ops (~23%), so
		// the observable marker share is ~0.77 * VecFrac.
		want := 0.77 * p.Vector.VecFrac
		if math.Abs(share-want) > 0.12 {
			t.Errorf("%s: vector share %v, want ~%v", p.Name, share, want)
		}
	}
}

func TestDetailedStreamMixRoughlyFollowsProfile(t *testing.T) {
	for _, p := range All() {
		ins := isa.Collect(&isa.LimitStream{S: NewDetailedStream(p, 11), N: 200000})
		var mem, fp int
		for _, in := range ins {
			if in.Class.IsMem() {
				mem++
			}
			if in.Class.IsFP() {
				fp++
			}
		}
		memShare := float64(mem) / float64(len(ins))
		if memShare < 0.15 || memShare > 0.55 {
			t.Errorf("%s: mem share %v implausible", p.Name, memShare)
		}
		fpShare := float64(fp) / float64(len(ins))
		if fpShare < 0.10 || fpShare > 0.55 {
			t.Errorf("%s: fp share %v implausible", p.Name, fpShare)
		}
	}
}

func TestLuleshShortTripsDefeatWideFusion(t *testing.T) {
	// LULESH's trip counts are below the fuser's MinRun: 512-bit fusion
	// should produce almost no wide ops, while SPMZ should fuse heavily.
	countWide := func(p *Profile) float64 {
		src := &isa.LimitStream{S: NewDetailedStream(p, 13), N: 100000}
		fu := isa.NewFuser(src, isa.DefaultFuserConfig(512))
		ops := isa.Collect(fu)
		wide := 0
		vec := 0
		for _, in := range ops {
			if in.Lanes > 2 {
				wide++
			}
			if in.Vectorizable {
				vec++
			}
		}
		return float64(wide) / float64(len(ops))
	}
	lul := countWide(LULESH())
	spm := countWide(SPMZ())
	if lul > 0.05 {
		t.Errorf("lulesh wide-op share = %v, want ~0", lul)
	}
	if spm < 0.15 {
		t.Errorf("spmz wide-op share = %v, want substantial", spm)
	}
}

func TestLaneWorkPerRank(t *testing.T) {
	p := Hydro()
	want := p.Regions[0].LaneWork() * float64(p.Iterations)
	if got := p.LaneWorkPerRank(); math.Abs(got-want) > 1 {
		t.Errorf("LaneWorkPerRank = %v, want %v", got, want)
	}
}

func TestBurstScalingShapesFig2a(t *testing.T) {
	// The headline scaling shape (Fig. 2a): HYDRO must be the only app at
	// >= 75% parallel efficiency on 64 cores; every other app must fall
	// below 65%; the cross-app average must sit near 50% (paper: ~50%).
	opts := func(threads int) rts.Options {
		return rts.Options{Threads: threads, DispatchNs: 100, Policy: rts.FIFOCentral}
	}
	effAt := func(p *Profile, threads int) float64 {
		g := p.RegionGraph(0, 21)
		s1 := rts.Simulate(g, opts(1))
		sN := rts.Simulate(g, opts(threads))
		return s1.MakespanNs / sN.MakespanNs / float64(threads)
	}
	var sum64 float64
	for _, p := range All() {
		e64 := effAt(p, 64)
		sum64 += e64
		if p.Name == "hydro" {
			if e64 < 0.72 {
				t.Errorf("hydro efficiency@64 = %v, want >= ~0.75", e64)
			}
		} else if e64 > 0.70 {
			t.Errorf("%s efficiency@64 = %v, want < 0.70", p.Name, e64)
		}
	}
	avg := sum64 / 5
	if avg < 0.35 || avg > 0.65 {
		t.Errorf("average efficiency@64 = %v, want ~0.5", avg)
	}
}

func BenchmarkDetailedStream(b *testing.B) {
	s := NewDetailedStream(Spec3D(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}
