// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §5 for the index). Each benchmark regenerates
// its artifact and prints the rows the paper reports, once, alongside the
// usual timing output. The heavyweight 864-point sweep dataset is built
// once and shared across the figure benchmarks.
//
// Absolute numbers are not expected to match the paper (our substrate is a
// synthetic-workload simulator, not the BSC toolchain); the comparisons to
// check are the shapes recorded in EXPERIMENTS.md.
//
// Nothing here is gated and no file records these timings. How fast a sweep
// or a request runs is measured by benchmark/ (BENCHMARK.json's workloads)
// and held parent-against-change by scripts/benchpair.sh; the ablation and
// store / key micro benchmarks below are readings for whoever is working on
// that layer. The one stable number among them, allocations per key, is a
// test (TestExperimentKeyAllocs).
package musa

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"musa/internal/apps"
	"musa/internal/cache"
	"musa/internal/core"
	"musa/internal/cpu"
	"musa/internal/dram"
	"musa/internal/dse"
	"musa/internal/isa"
	"musa/internal/net"
	"musa/internal/node"
	"musa/internal/report"
	"musa/internal/rts"
	"musa/internal/store"
)

// Reduced-but-meaningful sample sizes for the shared benchmark sweep; the
// `musa dse` command uses the full defaults.
const (
	benchSample = 120000
	benchWarmup = 700000
)

var (
	benchOnce sync.Once
	benchData *Sweep
)

func benchDataset(b *testing.B) *Sweep {
	b.Helper()
	benchOnce.Do(func() {
		fmt.Fprintln(os.Stderr, "building shared 864-configuration sweep dataset (once)...")
		client, err := NewClient(ClientOptions{})
		if err != nil {
			panic(err)
		}
		defer client.Close()
		res, err := client.Run(context.Background(), Experiment{
			Kind:   KindSweep,
			Sample: benchSample,
			Warmup: benchWarmup,
			Seed:   1,
		})
		if err != nil {
			panic(err)
		}
		benchData = res.Sweep
	})
	return benchData
}

var printed sync.Map

// printOnce renders a table to stdout the first time name is seen, so
// repeated benchmark iterations do not spam the output.
func printOnce(name string, render func() *report.Table) {
	if _, loaded := printed.LoadOrStore(name, true); loaded {
		return
	}
	t := render()
	fmt.Println()
	_ = t.Write(os.Stdout)
}

// BenchmarkTable1DesignSpace regenerates Table I: the 864-point grid.
func BenchmarkTable1DesignSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := dse.Enumerate()
		if len(pts) != 864 {
			b.Fatalf("%d points", len(pts))
		}
	}
	printOnce("table1", func() *report.Table {
		t := report.NewTable("Table I: swept parameters", "feature", "values")
		t.AddRow("cores", "1, 32, 64")
		t.AddRow("core OoO", "lowend, medium, high, aggressive")
		t.AddRow("frequency GHz", "1.5, 2.0, 2.5, 3.0")
		t.AddRow("vector bits", "128, 256, 512")
		t.AddRow("cache L3:L2", "32M:256K, 64M:512K, 96M:1M")
		t.AddRow("DDR4 channels", "4, 8")
		t.AddRow("total", fmt.Sprintf("%d configurations", len(dse.Enumerate())))
		return t
	})
}

// BenchmarkFigure1MPKI regenerates Fig. 1: per-application cache MPKIs and
// DRAM request rates at the reference configuration.
func BenchmarkFigure1MPKI(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	var rows []CharacterizationRow
	for i := 0; i < b.N; i++ {
		rows = Characterization(d)
	}
	printOnce("fig1", func() *report.Table {
		t := report.NewTable("Figure 1: runtime statistics (paper: hydro 5.98/1.78/0.19/0.02 ... lulesh 13.5/4.6/5.3/0.51)",
			"app", "cores", "L1 MPKI", "L2 MPKI", "L3 MPKI", "GReq/s", "e2e ms @256", "MPI frac", "par eff")
		for _, r := range rows {
			t.AddRow(r.App, r.Cores, r.L1MPKI, r.L2MPKI, r.L3MPKI, r.GMemReqPerSec/1e9,
				r.EndToEndNs/1e6, r.MPIFraction, r.ParallelEff)
		}
		return t
	})
}

// BenchmarkFigure2aScaling regenerates Fig. 2a: hardware-agnostic scaling of
// one compute region per application.
func BenchmarkFigure2aScaling(b *testing.B) {
	var last map[string][]float64
	for i := 0; i < b.N; i++ {
		last = map[string][]float64{}
		for _, app := range Applications() {
			last[app.Name] = RegionScaling(app, []int{1, 32, 64})
		}
	}
	printOnce("fig2a", func() *report.Table {
		t := report.NewTable("Figure 2a: compute-region speedup (paper: ~70% efficiency @32, ~50% @64; only hydro > 75% @64)",
			"app", "speedup@32", "speedup@64", "eff@64")
		for _, app := range Applications() {
			sp := last[app.Name]
			t.AddRow(app.Name, sp[1], sp[2], sp[2]/64)
		}
		return t
	})
}

// BenchmarkFigure2bScaling regenerates Fig. 2b: whole-application scaling
// with MPI replay across 256 ranks.
func BenchmarkFigure2bScaling(b *testing.B) {
	model := MareNostrumNetwork()
	var last map[string][]FullAppScalingResult
	for i := 0; i < b.N; i++ {
		last = map[string][]FullAppScalingResult{}
		for _, app := range Applications() {
			last[app.Name], _ = core.FullAppScalingCtx(context.Background(), app, 256, []int{32, 64}, model, core.DefaultBurstOptions())
		}
	}
	printOnce("fig2b", func() *report.Table {
		t := report.NewTable("Figure 2b: full-app speedup incl. MPI, 256 ranks (paper: avg eff 49% @32, 28% @64)",
			"app", "speedup@32", "speedup@64", "eff@32", "eff@64", "MPI frac@64")
		for _, app := range Applications() {
			r := last[app.Name]
			t.AddRow(app.Name, r[0].Speedup, r[1].Speedup, r[0].Efficiency, r[1].Efficiency, r[1].MPIFraction)
		}
		return t
	})
}

// BenchmarkFigure3Timeline regenerates the Fig. 3 view: Specfem3D thread
// occupancy showing idle threads.
func BenchmarkFigure3Timeline(b *testing.B) {
	app, _ := App("spec3d")
	g := app.RegionGraph(0, 1)
	var s rts.Schedule
	for i := 0; i < b.N; i++ {
		s = rts.Simulate(g, rts.Options{Threads: 64, DispatchNs: 100, Policy: rts.FIFOCentral})
	}
	if _, loaded := printed.LoadOrStore("fig3", true); !loaded {
		fmt.Println("\n== Figure 3: Specfem3D task timeline on 64 threads (busy '#', idle '.') ==")
		_ = report.WriteScheduleTimeline(os.Stdout, g, s, 64)
	}
}

// BenchmarkFigure4Timeline regenerates the Fig. 4 view: LULESH rank timeline
// with MPI barrier waiting.
func BenchmarkFigure4Timeline(b *testing.B) {
	app, _ := App("lulesh")
	tr := core.SampleBurst(app, 64, 1)
	model := net.MareNostrum4()
	var res net.Result
	for i := 0; i < b.N; i++ {
		res = net.Replay(tr, model, nil)
	}
	if _, loaded := printed.LoadOrStore("fig4", true); !loaded {
		fmt.Println("\n== Figure 4: LULESH rank timeline, 64 ranks (compute '#', MPI wait 'w') ==")
		_ = report.WriteReplayTimeline(os.Stdout, res)
	}
}

// figureBench regenerates one b-panel figure from the shared dataset.
func figureBench(b *testing.B, name string, feat Feature, paperNote string) {
	d := benchDataset(b)
	b.ResetTimer()
	var perf, pow, energy []Bar
	for i := 0; i < b.N; i++ {
		perf = SpeedupBars(d, feat, 64)
		pow = PowerBars(d, feat, 64)
		energy = EnergyBars(d, feat, 64)
	}
	printOnce(name, func() *report.Table {
		t := report.NewTable(fmt.Sprintf("%s (64 cores; %s)", name, paperNote),
			"app", "value", "speedup", "sd", "power", "energy")
		for i := range perf {
			t.AddRow(perf[i].App, perf[i].Value, perf[i].Mean, perf[i].Std, pow[i].Mean, energy[i].Mean)
		}
		return t
	})
}

// BenchmarkFigure5VectorWidth regenerates Fig. 5 (SIMD width sweep).
func BenchmarkFigure5VectorWidth(b *testing.B) {
	figureBench(b, "Figure 5: FPU vector width", FeatVector,
		"paper: +20% hydro ... +75% spmz at 512-bit, lulesh flat; core power ~+60%")
}

// BenchmarkFigure6CacheSize regenerates Fig. 6 (cache configuration sweep).
func BenchmarkFigure6CacheSize(b *testing.B) {
	figureBench(b, "Figure 6: cache sizes", FeatCache,
		"paper: hydro +21%, btmz +9%, lulesh +12%, spec3d ~0")
}

// BenchmarkFigure7OoO regenerates Fig. 7 (out-of-order capability sweep).
func BenchmarkFigure7OoO(b *testing.B) {
	figureBench(b, "Figure 7: core OoO capabilities", FeatOoO,
		"paper: lowend ~35% slower (spec3d 60%); medium/high close to aggressive at ~80% power")
}

// BenchmarkFigure8MemChannels regenerates Fig. 8 (memory channel sweep).
func BenchmarkFigure8MemChannels(b *testing.B) {
	figureBench(b, "Figure 8: memory channels", FeatChannels,
		"paper: only lulesh speeds up (+60%); DRAM power ~2x, node power +10-20%")
}

// BenchmarkFigure9Frequency regenerates Fig. 9 (frequency sweep).
func BenchmarkFigure9Frequency(b *testing.B) {
	figureBench(b, "Figure 9: CPU frequency", FeatFreq,
		"paper: ~linear speedup except hydro beyond 2.5 GHz; ~2.5x power at 2x clock")
}

// BenchmarkFigure10PCA regenerates Fig. 10 (principal component analysis).
func BenchmarkFigure10PCA(b *testing.B) {
	d := benchDataset(b)
	b.ResetTimer()
	results := map[string]*PCAResult{}
	for i := 0; i < b.N; i++ {
		for _, app := range []string{"hydro", "lulesh"} {
			res, err := PCA(d, app)
			if err != nil {
				b.Fatal(err)
			}
			results[app] = res
		}
	}
	printOnce("fig10", func() *report.Table {
		t := report.NewTable("Figure 10: PCA loadings (paper: hydro PC0 = OoO vs time; lulesh PC0 = mem BW & cache vs time)",
			"app", "component", "OoO", "MemBW", "FPU", "Cache", "Time", "explained")
		for _, app := range []string{"hydro", "lulesh"} {
			r := results[app]
			for c := 0; c < 2; c++ {
				t.AddRow(app, fmt.Sprintf("PC%d", c),
					r.Loadings[c][0], r.Loadings[c][1], r.Loadings[c][2], r.Loadings[c][3], r.Loadings[c][4],
					fmt.Sprintf("%.1f%%", r.Explained[c]*100))
			}
		}
		return t
	})
}

var (
	unconvOnce sync.Once
	unconvRows []UnconventionalRow
)

// BenchmarkTable2Unconventional regenerates Table II's configurations.
func BenchmarkTable2Unconventional(b *testing.B) {
	unconvOnce.Do(func() {
		unconvRows, _ = Unconventional(SimOptions{SampleInstrs: benchSample, WarmupInstrs: benchWarmup, Seed: 1})
	})
	var labels int
	for i := 0; i < b.N; i++ {
		labels = len(unconvRows)
	}
	if labels != 6 {
		b.Fatalf("%d rows", labels)
	}
	printOnce("table2", func() *report.Table {
		t := report.NewTable("Table II: application-specific configurations", "app", "label", "arch")
		for _, r := range unconvRows {
			t.AddRow(r.App, r.Label, r.Arch.Label())
		}
		return t
	})
}

// BenchmarkFigure11Unconventional regenerates Fig. 11: the unconventional
// configurations' relative performance/power/energy.
func BenchmarkFigure11Unconventional(b *testing.B) {
	unconvOnce.Do(func() {
		unconvRows, _ = Unconventional(SimOptions{SampleInstrs: benchSample, WarmupInstrs: benchWarmup, Seed: 1})
	})
	var sum float64
	for i := 0; i < b.N; i++ {
		for _, r := range unconvRows {
			sum += r.RelPerf
		}
	}
	_ = sum
	printOnce("fig11", func() *report.Table {
		t := report.NewTable("Figure 11 (paper: Vector+ 1.13x, Vector++ 1.43x perf / 3.14x power; MEM+ -47% energy; MEM++ 1.30x perf)",
			"app", "config", "perf", "power", "energy")
		for _, r := range unconvRows {
			energy := fmt.Sprintf("%.3f", r.RelEnergy)
			if !r.EnergyKnown {
				energy = "n/a"
			}
			t.AddRow(r.App, r.Label, r.RelPerf, r.RelPower, energy)
		}
		return t
	})
}

// --- Ablation benchmarks (DESIGN.md §7) ---

// BenchmarkAblationDRAMSched compares FR-FCFS and FCFS DRAM scheduling on
// mixed traffic.
func BenchmarkAblationDRAMSched(b *testing.B) {
	app, _ := App("lulesh")
	for _, policy := range []dram.SchedPolicy{dram.FRFCFS, dram.FCFS} {
		b.Run(policy.String(), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				m := node.BuildLatencyModel(app, dram.Config{Spec: dram.DDR4_2333(), Channels: 4}, policy, 1)
				bw = m.SatBW
			}
			b.ReportMetric(bw/1e9, "GB/s-sustained")
		})
	}
}

// BenchmarkAblationScheduler compares the central FIFO queue against work
// stealing on a fine-grained task graph.
func BenchmarkAblationScheduler(b *testing.B) {
	app, _ := App("hydro")
	g := app.RegionGraph(0, 1)
	for _, policy := range []rts.Policy{rts.FIFOCentral, rts.WorkSteal} {
		b.Run(policy.String(), func(b *testing.B) {
			var mk float64
			for i := 0; i < b.N; i++ {
				s := rts.Simulate(g, rts.Options{Threads: 64, DispatchNs: 100, Policy: policy})
				mk = s.MakespanNs
			}
			b.ReportMetric(mk/1e3, "makespan-us")
		})
	}
}

// BenchmarkAblationContention measures the bandwidth-contention fixed point
// on versus off for the bandwidth-bound application.
func BenchmarkAblationContention(b *testing.B) {
	app, _ := App("lulesh")
	for _, disable := range []bool{false, true} {
		name := "fixedpoint"
		if disable {
			name = "flat-latency"
		}
		b.Run(name, func(b *testing.B) {
			point := dse.ArchPoint{
				Cores: 64, Core: cpu.Medium(), FreqGHz: 2.0, VectorBits: 128,
				Cache: dse.CacheConfigs()[1], Channels: 4, Mem: dse.DDR4,
			}
			cfg := point.NodeConfig(60000, 200000, 1)
			cfg.DisableContention = disable
			var t float64
			for i := 0; i < b.N; i++ {
				res := node.Simulate(app, cfg)
				t = res.ComputeNs
			}
			b.ReportMetric(t/1e6, "compute-ms")
		})
	}
}

// BenchmarkAblationFusionWindow sweeps the vector model's MinRun threshold:
// how many consecutive loop iterations a block needs before wide fusion.
func BenchmarkAblationFusionWindow(b *testing.B) {
	app, _ := App("spmz")
	for _, minRun := range []int{1, 4, 16, 64} {
		// name=value instead of name-value: a trailing -N would be
		// indistinguishable from the GOMAXPROCS suffix go test appends,
		// collapsing distinct sub-benchmarks in the CI bench artifact.
		b.Run(fmt.Sprintf("minrun=%d", minRun), func(b *testing.B) {
			var fused int64
			for i := 0; i < b.N; i++ {
				src := &isa.LimitStream{S: apps.NewDetailedStream(app, 1), N: 60000}
				fu := isa.NewFuser(src, isa.FuserConfig{WidthBits: 512, MinRun: minRun, MaxBlock: 4096})
				for {
					if _, ok := fu.Next(); !ok {
						break
					}
				}
				fused = fu.Stats().Fused
			}
			b.ReportMetric(float64(fused), "lanes-fused")
		})
	}
}

// BenchmarkAblationPrefetcher measures the stream prefetcher's effect on
// the bandwidth-bound code.
func BenchmarkAblationPrefetcher(b *testing.B) {
	app, _ := App("lulesh")
	for _, deg := range []int{-1, 4} {
		name := "prefetch-on"
		if deg < 0 {
			name = "prefetch-off"
		}
		b.Run(name, func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				hier := newHierarchy(cache.HierarchyConfig{
					L1:              cache.Config{Name: "L1", SizeBytes: 32 * 1024, Assoc: 8, LatencyCycle: 4},
					L2:              cache.Config{Name: "L2", SizeBytes: 512 * 1024, Assoc: 16, LatencyCycle: 11},
					L3:              cache.Config{Name: "L3", SizeBytes: 1 << 20, Assoc: 16, LatencyCycle: 70},
					MemLatencyCycle: 120,
					PrefetchDegree:  deg,
				})
				c := cpu.New(cpu.Medium(), hier, 1)
				src := &isa.LimitStream{S: apps.NewDetailedStream(app, 1), N: 60000}
				fu := isa.NewFuser(src, isa.DefaultFuserConfig(128))
				ipc = c.Run(fu).IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// ---------------------------------------------------------------------------
// Result-store micro-benchmarks. Each iteration performs storeBenchOps
// operations; ns/op is therefore the cost of one batch, comparable across
// storage engines. The store is sized so the working set overflows the LRU
// front and lookups exercise the on-disk engine, not just the in-memory
// cache.

const storeBenchOps = 1024

func storeBenchMeasurement(i int) dse.Measurement {
	return dse.Measurement{
		App:    "hydro",
		Arch:   dse.ArchPoint{Cores: 32, Core: cpu.Medium(), FreqGHz: 2.0, VectorBits: 256, Cache: dse.CacheConfigs()[1], Channels: 4, Mem: dse.DDR4},
		TimeNs: float64(i), IPC: 1.1, EnergyJ: float64(i) * 1e-9,
		L1MPKI: 1.5, L2MPKI: 0.7, L3MPKI: 0.2, GMemReqPerSec: 1e9,
		Cluster: []dse.ClusterStat{
			{Ranks: 64, EndToEndNs: float64(i) * 1.2, MPIFraction: 0.1, ParallelEff: 0.8},
			{Ranks: 256, EndToEndNs: float64(i) * 1.5, MPIFraction: 0.25, ParallelEff: 0.6},
		},
		EndToEndNs: float64(i) * 1.5, MPIFraction: 0.25, ParallelEff: 0.6,
	}
}

func storeBenchKey(prefix string, i int) string {
	return fmt.Sprintf("%s-%06d", prefix, i)
}

// storeBenchOpen opens a store whose LRU front is deliberately smaller than
// the benchmark working set and pre-fills it with 4*storeBenchOps entries.
func storeBenchOpen(b *testing.B) *store.Store {
	b.Helper()
	st, err := store.Open(b.TempDir(), store.Options{LRUEntries: 256})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	for i := 0; i < 4*storeBenchOps; i++ {
		if err := st.Put(storeBenchKey("warm", i), storeBenchMeasurement(i)); err != nil {
			b.Fatal(err)
		}
	}
	// Read from segments, as a reopened store would, not from the memtable.
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	return st
}

// storeBenchKeys precomputes a batch of lookup keys so the read benchmarks
// time the store, not fmt formatting and its garbage.
func storeBenchKeys(prefix string, stride int) []string {
	keys := make([]string, storeBenchOps)
	for j := range keys {
		keys[j] = storeBenchKey(prefix, j*stride)
	}
	return keys
}

// BenchmarkStoreGetHit measures one batch of lookups of stored keys; most
// overflow the LRU front and are served by the engine.
func BenchmarkStoreGetHit(b *testing.B) {
	st := storeBenchOpen(b)
	keys := storeBenchKeys("warm", 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			if _, ok := st.Get(k); !ok {
				b.Fatal("stored key missed")
			}
		}
	}
}

// BenchmarkStoreGetMiss measures one batch of lookups of never-computed
// keys — the dominant operation of a cold design-space exploration at serve
// scale, and the case bloom filters make nearly free.
func BenchmarkStoreGetMiss(b *testing.B) {
	st := storeBenchOpen(b)
	keys := storeBenchKeys("never-computed", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			if _, ok := st.Get(k); ok {
				b.Fatal("phantom hit")
			}
		}
	}
}

// BenchmarkStorePut measures one batch of fresh-key writes.
func BenchmarkStorePut(b *testing.B) {
	st := storeBenchOpen(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < storeBenchOps; j++ {
			if err := st.Put(storeBenchKey(fmt.Sprintf("put-%d", i), j), storeBenchMeasurement(j)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStoreMixed measures a concurrent read-dominated workload: three
// reader goroutines (alternating hits and misses) against one writer, the
// shape of a warm serve replica taking traffic while a sweep checkpoints.
func BenchmarkStoreMixed(b *testing.B) {
	st := storeBenchOpen(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for j := 0; j < storeBenchOps/4; j++ {
					if j%2 == 0 {
						st.Get(storeBenchKey("warm", (j*(r+2))%(4*storeBenchOps)))
					} else {
						st.Get(storeBenchKey("mixed-miss", j*(r+1)))
					}
				}
			}(r)
		}
		for j := 0; j < storeBenchOps/4; j++ {
			if err := st.Put(storeBenchKey(fmt.Sprintf("mixed-%d", i), j), storeBenchMeasurement(j)); err != nil {
				b.Fatal(err)
			}
		}
		wg.Wait()
	}
}

// keyBenchExperiments is the paper's 864 x 5 (point, application) pairs as
// node experiments.
func keyBenchExperiments() []Experiment {
	var exps []Experiment
	for _, a := range Applications() {
		for i := 0; i < PointCount(); i++ {
			exps = append(exps, Experiment{Kind: KindNode, App: a.Name, PointIndex: &i, Sample: benchSample, Warmup: benchWarmup})
		}
	}
	return exps
}

// keyBenchDerive is Normalize then Key of each experiment: the
// canonical-encoding work every request and every sweep point pays before
// the store can be asked anything.
func keyBenchDerive(tb testing.TB, exps []Experiment) {
	for _, e := range exps {
		ne, err := e.Normalize()
		if err != nil {
			tb.Fatal(err)
		}
		if k, err := ne.Key(); err != nil || len(k) != 64 {
			tb.Fatalf("key %q: %v", k, err)
		}
	}
}

// BenchmarkExperimentKey measures one batch of store-key derivations, the
// whole grid eight times over so one iteration reads above a tenth of a
// second. TestExperimentKeyAllocs holds its allocations per key.
func BenchmarkExperimentKey(b *testing.B) {
	exps := keyBenchExperiments()
	const rounds = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N*rounds; i++ {
		keyBenchDerive(b, exps)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds*len(exps)), "ns/key")
}

// TestRouteAllocs pins what resolving a /simulate request allocates: a
// point-index node experiment's Route holds its normalized Arch, its copy of
// the replay rank list and its key string (6.00 before the Arch was copied
// once and the key encoded without heap copies of the Arch and network).
func TestRouteAllocs(t *testing.T) {
	c, err := NewClient(ClientOptions{NoArtifacts: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	i := 100
	e := Experiment{App: "lulesh", PointIndex: &i}
	got := testing.AllocsPerRun(100, func() {
		if _, err := c.Route(e); err != nil {
			t.Fatal(err)
		}
	})
	if got > 3 {
		t.Fatalf("Client.Route allocated %.2f times, want at most 3", got)
	}
}

// TestExperimentKeyAllocs pins what deriving one store key allocates (14.0
// when written, 12.0 since Normalize copies a point's Arch once and the key
// is encoded without heap copies of it): an appendCanonical that falls back
// to reflection, or a Normalize that rebuilds an application profile, shows
// here first.
func TestExperimentKeyAllocs(t *testing.T) {
	const ceiling = 13
	exps := keyBenchExperiments()
	got := testing.AllocsPerRun(1, func() { keyBenchDerive(t, exps) }) / float64(len(exps))
	if got >= ceiling {
		t.Fatalf("%.2f allocations per Normalize + Key, want fewer than %d", got, ceiling)
	}
}

// newHierarchy builds one cache hierarchy: a SharedL1 over one configuration.
func newHierarchy(cfg cache.HierarchyConfig) *cache.Hierarchy {
	return cache.NewSharedL1([]cache.HierarchyConfig{cfg}).Hierarchies()[0]
}
