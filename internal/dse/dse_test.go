package dse

import (
	"context"
	"fmt"
	"testing"

	"musa/internal/apps"
	"musa/internal/cpu"
)

// testOpts returns a reduced-size sweep: two applications over a small but
// structurally complete grid so the pairing/normalization logic is fully
// exercised without the cost of the 864-point production sweep.
func testOpts() Options {
	var pts []ArchPoint
	for _, cores := range []int{32, 64} {
		for _, core := range []cpu.Config{cpu.Medium(), cpu.Aggressive()} {
			for _, v := range VectorWidths() {
				for _, c := range CacheConfigs()[:2] {
					for _, ch := range ChannelCounts() {
						pts = append(pts, ArchPoint{
							Cores: cores, Core: core, FreqGHz: 2.0,
							VectorBits: v, Cache: c, Channels: ch, Mem: DDR4,
						})
					}
				}
			}
		}
	}
	return Options{
		Apps:         []*apps.Profile{apps.SPMZ(), apps.LULESH()},
		Points:       pts,
		SampleInstrs: 60000,
		WarmupInstrs: 200000,
		Workers:      4,
		Seed:         1,
	}
}

func TestEnumerateIs864(t *testing.T) {
	pts := Enumerate()
	if len(pts) != 864 {
		t.Fatalf("design space has %d points, want 864 (Table I)", len(pts))
	}
	seen := map[string]bool{}
	for _, p := range pts {
		l := p.Label()
		if seen[l] {
			t.Fatalf("duplicate point %s", l)
		}
		seen[l] = true
	}
}

// TestLabelFormat pins the appended label to the format string it replaced.
func TestLabelFormat(t *testing.T) {
	pts := Enumerate()
	odd := pts[0]
	odd.FreqGHz, odd.Mem, odd.Channels, odd.VectorBits = 2.25, HBM, 16, 2048 // Table II shapes; .1f rounds to even
	for _, a := range append(pts, odd) {
		want := fmt.Sprintf("%dc/%s/%.1fGHz/%db/%s/%dch%s",
			a.Cores, a.Core.Name, a.FreqGHz, a.VectorBits, a.Cache.Label, a.Channels, a.Mem)
		if got := a.Label(); got != want {
			t.Fatalf("Label() = %q, want %q", got, want)
		}
	}
}

func TestArchPointNodeConfig(t *testing.T) {
	p := Enumerate()[0]
	cfg := p.NodeConfig(1000, 2000, 7)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.SampleInstrs != 1000 || cfg.Seed != 7 {
		t.Errorf("config plumbing: %+v", cfg)
	}
}

func TestFeatureValues(t *testing.T) {
	for _, f := range []Feature{FeatVector, FeatCache, FeatOoO, FeatChannels, FeatFreq} {
		vs := f.Values()
		if len(vs) < 2 {
			t.Errorf("%v has %d values", f, len(vs))
		}
		if f.Baseline() != vs[0] {
			t.Errorf("%v baseline mismatch", f)
		}
		if f.String() == "?" {
			t.Errorf("feature %d unprintable", f)
		}
	}
}

func TestReplayConfigNormalized(t *testing.T) {
	def := ReplayConfig{}.Normalized()
	if def.Disable || len(def.Ranks) != 2 || def.Ranks[0] != 64 || def.Ranks[1] != 256 {
		t.Errorf("default replay config = %+v", def)
	}
	if def.Network.BandwidthBps <= 0 {
		t.Errorf("default network not filled: %+v", def.Network)
	}
	sorted := ReplayConfig{Ranks: []int{128, 16}}.Normalized()
	if sorted.Ranks[0] != 16 || sorted.Ranks[1] != 128 {
		t.Errorf("ranks not sorted: %v", sorted.Ranks)
	}
	for _, c := range []ReplayConfig{{Disable: true}, {Ranks: []int{}}} {
		if n := c.Normalized(); !n.Disable || n.Ranks != nil {
			t.Errorf("%+v should normalize to disabled, got %+v", c, n)
		}
	}
}

// TestClusterMetricsProperty is the cluster-stage invariant: in a reduced
// sweep, every measurement carries replay results at every configured rank
// count, the end-to-end makespan dominates the node compute time, and the
// derived fractions are sane.
func TestClusterMetricsProperty(t *testing.T) {
	o := testOpts()
	o.Points = o.Points[:6]
	o.SampleInstrs = 20000
	o.WarmupInstrs = 40000
	d := Run(context.Background(), o)
	if len(d.Measurements) == 0 {
		t.Fatal("empty sweep")
	}
	for _, m := range d.Measurements {
		if len(m.Cluster) != 2 {
			t.Fatalf("%s %s: %d cluster entries, want 2", m.App, m.Arch.Label(), len(m.Cluster))
		}
		for _, c := range m.Cluster {
			if c.EndToEndNs < m.TimeNs {
				t.Errorf("%s %s @%d ranks: EndToEndNs %v < TimeNs %v",
					m.App, m.Arch.Label(), c.Ranks, c.EndToEndNs, m.TimeNs)
			}
			if c.MPIFraction < 0 || c.MPIFraction > 1 {
				t.Errorf("%s %s @%d ranks: MPI fraction %v", m.App, m.Arch.Label(), c.Ranks, c.MPIFraction)
			}
			if c.ParallelEff <= 0 || c.ParallelEff > 1 {
				t.Errorf("%s %s @%d ranks: parallel efficiency %v", m.App, m.Arch.Label(), c.Ranks, c.ParallelEff)
			}
		}
		if m.EndToEndNs != m.Cluster[1].EndToEndNs || m.MPIFraction != m.Cluster[1].MPIFraction {
			t.Errorf("%s %s: top-level fields do not mirror the largest rank count", m.App, m.Arch.Label())
		}
	}
}

// TestReplayDisabled checks the node-only path leaves the cluster fields
// zero.
func TestReplayDisabled(t *testing.T) {
	o := testOpts()
	o.Points = o.Points[:2]
	o.SampleInstrs = 20000
	o.WarmupInstrs = 40000
	o.Replay = ReplayConfig{Disable: true}
	d := Run(context.Background(), o)
	for _, m := range d.Measurements {
		if m.Cluster != nil || m.EndToEndNs != 0 || m.MPIFraction != 0 || m.ParallelEff != 0 {
			t.Fatalf("replay-disabled measurement has cluster data: %+v", m)
		}
	}
}

func TestRunAndNormalize(t *testing.T) {
	d := Run(context.Background(), testOpts())
	want := len(testOpts().Points) * 2
	if len(d.Measurements) != want {
		t.Fatalf("%d measurements, want %d", len(d.Measurements), want)
	}
	for _, m := range d.Measurements {
		if m.TimeNs <= 0 || m.EnergyJ <= 0 || m.Power.Total() <= 0 {
			t.Fatalf("degenerate measurement %s %s: %+v", m.App, m.Arch.Label(), m)
		}
	}
	if len(d.ByApp("spmz")) != len(testOpts().Points) {
		t.Errorf("ByApp size %d", len(d.ByApp("spmz")))
	}

	// Vector speedups: spmz must gain substantially at 512-bit, lulesh must
	// not (Fig. 5a shape).
	bars := NormalizedBars(d.Measurements, FeatVector, MetricTime, true, 64)
	get := func(app, v string) float64 {
		for _, b := range bars {
			if b.App == app && b.Value == v {
				return b.Mean
			}
		}
		t.Fatalf("missing bar %s/%s", app, v)
		return 0
	}
	if s := get("spmz", "512"); s < 1.25 {
		t.Errorf("spmz 512-bit speedup = %v", s)
	}
	if s := get("lulesh", "512"); s > 1.10 {
		t.Errorf("lulesh 512-bit speedup = %v", s)
	}
	if b := get("spmz", "128"); b != 1 {
		t.Errorf("baseline bar = %v, want 1", b)
	}

	// Channel speedups: lulesh gains, spmz does not (Fig. 8a shape).
	chBars := NormalizedBars(d.Measurements, FeatChannels, MetricTime, true, 64)
	for _, b := range chBars {
		if b.App == "lulesh" && b.Value == "8chDDR4" && b.Mean < 1.2 {
			t.Errorf("lulesh 8ch speedup = %v", b.Mean)
		}
	}

	// Memory power roughly doubles with channels (Fig. 8b shape).
	memBars := NormalizedBars(d.Measurements, FeatChannels, MetricMemW, false, 64)
	for _, b := range memBars {
		if b.Value == "8chDDR4" && (b.Mean < 1.4 || b.Mean > 2.2) {
			t.Errorf("%s mem power ratio = %v, want ~2", b.App, b.Mean)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	opts := testOpts()
	opts.Apps = []*apps.Profile{apps.BTMZ()}
	opts.Points = opts.Points[:6]
	a := Run(context.Background(), opts)
	b := Run(context.Background(), opts)
	if len(a.Measurements) != len(b.Measurements) {
		t.Fatal("sizes differ")
	}
	for i := range a.Measurements {
		if a.Measurements[i].TimeNs != b.Measurements[i].TimeNs {
			t.Fatalf("measurement %d differs across runs", i)
		}
	}
}

func TestPCAFor(t *testing.T) {
	d := Run(context.Background(), testOpts())
	res, err := PCAFor(d, "lulesh")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loadings) != 5 {
		t.Fatalf("%d components", len(res.Loadings))
	}
	// Execution time must load on PC0 (it varies most with the swept
	// parameters), and for LULESH memory bandwidth must oppose it.
	pc0 := res.Loadings[0]
	idx := map[string]int{}
	for i, l := range res.Labels {
		idx[l] = i
	}
	if pc0[idx["Exec. time"]]*pc0[idx["Mem. BW"]] >= 0 {
		t.Errorf("lulesh PC0: time %v and BW %v not opposed",
			pc0[idx["Exec. time"]], pc0[idx["Mem. BW"]])
	}
	if _, err := PCAFor(d, "unknown"); err == nil {
		t.Error("PCA for unknown app succeeded")
	}
}

func TestFigure1Rows(t *testing.T) {
	// Figure1 needs the reference configuration present.
	var pts []ArchPoint
	for _, cores := range []int{32, 64} {
		pts = append(pts, ArchPoint{
			Cores: cores, Core: cpu.Medium(), FreqGHz: 2.0, VectorBits: 128,
			Cache: CacheConfigs()[1], Channels: 4, Mem: DDR4,
		})
	}
	d := Run(context.Background(), Options{
		Apps:         []*apps.Profile{apps.Hydro(), apps.SPMZ()},
		Points:       pts,
		SampleInstrs: 60000,
		WarmupInstrs: 200000,
		Seed:         1,
	})
	rows := Figure1(d)
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.L1MPKI <= 0 {
			t.Errorf("%s/%dc: zero MPKI", r.App, r.Cores)
		}
	}
}

func TestUnconventionalShapes(t *testing.T) {
	rows, err := Unconventional(context.Background(), Options{SampleInstrs: 60000, WarmupInstrs: 200000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	byLabel := map[string]UnconventionalRow{}
	for _, r := range rows {
		byLabel[r.App+"/"+r.Label] = r
	}
	// Vector++ must beat Vector+ in performance but cost much more power
	// (Fig. 11 left).
	vp := byLabel["spmz/Vector+"]
	vpp := byLabel["spmz/Vector++"]
	if vpp.RelPerf <= vp.RelPerf {
		t.Errorf("Vector++ perf %v <= Vector+ %v", vpp.RelPerf, vp.RelPerf)
	}
	if vpp.RelPower <= vp.RelPower {
		t.Errorf("Vector++ power %v <= Vector+ %v", vpp.RelPower, vp.RelPower)
	}
	// MEM+ must cut LULESH energy (paper: -47%).
	mp := byLabel["lulesh/MEM+"]
	if mp.RelEnergy >= 1.0 {
		t.Errorf("MEM+ energy ratio = %v, want < 1", mp.RelEnergy)
	}
	// MEM++ is faster than MEM+ (HBM latency) and flagged energy-unknown.
	mpp := byLabel["lulesh/MEM++"]
	if mpp.RelPerf <= mp.RelPerf*0.95 {
		t.Errorf("MEM++ perf %v not above MEM+ %v", mpp.RelPerf, mp.RelPerf)
	}
	if mpp.EnergyKnown {
		t.Error("MEM++ energy should be flagged unknown (no public HBM power data)")
	}
}

func TestMemKind(t *testing.T) {
	if DDR4.String() == HBM.String() {
		t.Error("mem kinds indistinct")
	}
	if DDR4.Spec().Name == HBM.Spec().Name {
		t.Error("specs indistinct")
	}
}
