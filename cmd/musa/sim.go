package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"musa"
	"musa/internal/apps"
	"musa/internal/core"
	"musa/internal/isa"
	"musa/internal/report"
	"musa/internal/rts"
	"musa/internal/trace"
)

// runSim is `musa sim`: one detailed node simulation of one application on
// one architectural configuration, with its performance, cache and power
// results.
//
//	musa sim -app lulesh -cores 64 -core medium -freq 2.0 -vector 128 \
//	         -cache 64M:512K -channels 4 [-hbm] [-sample 300000] [-ranks 0]
//
// With -ranks N > 0 the full-application replay across N MPI ranks runs as
// well (detailed mode end to end). Both runs are Experiments executed
// through musa.Client; invalid flags are errors, never panics.
func runSim(fs *flag.FlagSet, args []string) error {
	appName := fs.String("app", "hydro", "application: hydro, spmz, btmz, spec3d, lulesh")
	cores := fs.Int("cores", 64, "cores per socket (1, 32, 64)")
	coreType := fs.String("core", "medium", "core type: lowend, medium, high, aggressive")
	freq := fs.Float64("freq", 2.0, "clock frequency in GHz")
	vector := fs.Int("vector", 128, "FPU vector width in bits")
	cacheLabel := fs.String("cache", "64M:512K", "cache config: 32M:256K, 64M:512K, 96M:1M")
	channels := fs.Int("channels", 4, "DDR channels")
	hbm := fs.Bool("hbm", false, "use HBM2 instead of DDR4-2333")
	sample := fs.Int64("sample", 0, "detailed sample length in micro-ops (0 = default)")
	warmup := fs.Int64("warmup", 0, "cache warmup length (0 = 2x sample)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	ranks := fs.Int("ranks", 0, "also replay a full run across N MPI ranks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client, err := openClient(musa.ClientOptions{MaxJobs: 1})
	if err != nil {
		return err
	}
	arch := musa.Arch{
		Cores: *cores, CoreType: *coreType, FreqGHz: *freq,
		VectorBits: *vector, CacheLabel: *cacheLabel, Channels: *channels, HBM: *hbm,
	}
	ctx := context.Background()
	res, err := client.Run(ctx, musa.Experiment{
		Kind: musa.KindNode, App: *appName, Arch: &arch,
		Sample: *sample, Warmup: *warmup, Seed: *seed,
		NoReplay: true, // the optional cluster view runs as its own full-app experiment
	})
	if err != nil {
		return err
	}
	m := res.Measurement
	tbl := report.NewTable(fmt.Sprintf("%s on %dx %s @ %.1f GHz, %d-bit SIMD, %s, %dch",
		m.App, *cores, *coreType, *freq, *vector, *cacheLabel, *channels),
		"metric", "value")
	tbl.AddRow("compute time (ms)", m.TimeNs/1e6)
	tbl.AddRow("IPC (sample core)", m.IPC)
	tbl.AddRow("avg active cores", m.ActiveCores)
	tbl.AddRow("L1 MPKI", m.L1MPKI)
	tbl.AddRow("L2 MPKI", m.L2MPKI)
	tbl.AddRow("L3 MPKI", m.L3MPKI)
	tbl.AddRow("DRAM GReq/s", m.GMemReqPerSec/1e9)
	tbl.AddRow("mem latency (ns)", m.MemLatencyNs)
	tbl.AddRow("offered BW (GB/s)", m.OfferedBW/1e9)
	tbl.AddRow("power core+L1 (W)", m.Power.CoreL1)
	tbl.AddRow("power L2+L3 (W)", m.Power.L2L3)
	tbl.AddRow("power memory (W)", m.Power.Memory)
	tbl.AddRow("power total (W)", m.Power.Total())
	tbl.AddRow("energy (J)", m.EnergyJ)
	if err := tbl.Write(os.Stdout); err != nil || *ranks <= 0 {
		return err
	}

	fres, err := client.Run(ctx, musa.Experiment{
		Kind: musa.KindFullApp, App: *appName, Arch: &arch,
		Sample: *sample, Warmup: *warmup, Seed: *seed, Ranks: *ranks,
	})
	if err != nil {
		return err
	}
	full := fres.FullApp
	t2 := report.NewTable(fmt.Sprintf("full application, %d ranks", *ranks), "metric", "value")
	t2.AddRow("makespan (ms)", full.MakespanNs/1e6)
	t2.AddRow("parallel efficiency", full.Replay.AvgParallelEfficiency())
	t2.AddRow("MPI fraction", full.Replay.MPIFraction())
	t2.AddRow("avg node power (W)", full.NodeAvgPowerW)
	t2.AddRow("system energy (J)", full.SystemEnergyJ)
	return t2.Write(os.Stdout)
}

// runScaling is `musa scaling`: the burst-mode (hardware-agnostic) scaling
// analysis of the paper's §V-A, Fig. 2a (single compute region) and
// Fig. 2b (whole parallel region including MPI overheads). Both views come
// from KindScaling experiments run through musa.Client.
//
//	musa scaling -mode region            # Fig. 2a
//	musa scaling -mode full -ranks 256   # Fig. 2b
func runScaling(fs *flag.FlagSet, args []string) error {
	mode := fs.String("mode", "region", "region (Fig. 2a) or full (Fig. 2b)")
	ranks := fs.Int("ranks", 256, "MPI ranks for full mode")
	network := fs.String("network", "", "interconnect model: mn4, hdr200 or eth10 (default mn4)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var t *report.Table
	switch *mode {
	case "region":
		t = report.NewTable("Figure 2a: single compute region scaling (hardware agnostic)",
			"app", "1 core", "32 cores", "64 cores", "eff@32", "eff@64")
	case "full":
		t = report.NewTable(
			fmt.Sprintf("Figure 2b: full application scaling incl. MPI (%d ranks)", *ranks),
			"app", "speedup@32", "speedup@64", "eff@32", "eff@64", "MPI frac@64")
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	client, err := openClient(musa.ClientOptions{MaxJobs: 1, Network: *network})
	if err != nil {
		return err
	}
	for _, app := range musa.Applications() {
		// Region speedups are rank-independent; the minimum rank count
		// makes the experiment's unused Fig. 2b replay side near-free.
		exp := musa.Experiment{Kind: musa.KindScaling, App: app.Name, Ranks: 2, CoreCounts: []int{1, 32, 64}}
		if *mode == "full" {
			exp.Ranks, exp.CoreCounts = *ranks, []int{32, 64}
		}
		res, err := client.Run(context.Background(), exp)
		if err != nil {
			return err
		}
		if *mode == "region" {
			sp := res.RegionSpeedups
			t.AddRow(app.Name, sp[0], sp[1], sp[2], sp[1]/32, sp[2]/64)
		} else {
			s := res.Scaling
			t.AddRow(app.Name, s[0].Speedup, s[1].Speedup, s[0].Efficiency, s[1].Efficiency, s[1].MPIFraction)
		}
	}
	return t.Write(os.Stdout)
}

// runTrace is `musa trace`: it synthesizes, inspects and draws MUSA traces
// — burst traces (JSON), detailed instruction traces (binary) and the
// thread timeline that stands in for the paper's Fig. 3 Paraver view. The
// rank timeline of Fig. 4 is `musa dse -fig 4`.
//
//	musa trace -app spec3d -timeline threads -cores 64   # Fig. 3
//	musa trace -app hydro -dump-burst trace.json
//	musa trace -app hydro -dump-detailed trace.bin -n 100000
//	musa trace -summarize trace.json
func runTrace(fs *flag.FlagSet, args []string) error {
	appName := fs.String("app", "hydro", "application")
	timeline := fs.String("timeline", "", "render a timeline: 'threads' (Fig. 3)")
	cores := fs.Int("cores", 64, "threads for the Fig. 3 timeline")
	ranks := fs.Int("ranks", 64, "ranks for the burst dump")
	dumpBurst := fs.String("dump-burst", "", "write the JSON burst trace to this file")
	dumpDetailed := fs.String("dump-detailed", "", "write a binary detailed trace to this file")
	n := fs.Int64("n", 100000, "detailed trace length (micro-ops)")
	summarize := fs.String("summarize", "", "summarize a JSON burst trace file")
	seed := fs.Uint64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *summarize != "" {
		f, err := os.Open(*summarize)
		if err != nil {
			return err
		}
		defer f.Close()
		b, err := trace.ReadBurst(f)
		if err != nil {
			return err
		}
		s := b.Summarize()
		fmt.Printf("app=%s ranks=%d regions=%d events=%d compute=%.3fms p2p=%d msgs/%d bytes collectives=%d\n",
			b.App, s.Ranks, s.Regions, s.Events, s.ComputeNs/1e6, s.P2PMessages, s.P2PBytes, s.Collectives)
		return nil
	}
	app, err := musa.App(*appName)
	if err != nil {
		return err
	}
	switch {
	case *timeline == "threads":
		g := app.RegionGraph(0, *seed)
		s := rts.Simulate(g, rts.Options{Threads: *cores, DispatchNs: 100, Policy: rts.FIFOCentral})
		fmt.Printf("%s compute region on %d threads (busy '#', idle '.'); Fig. 3 view\n", app.Name, *cores)
		return report.WriteScheduleTimeline(os.Stdout, g, s, *cores)
	case *timeline != "":
		return fmt.Errorf("unknown timeline %q (the rank timeline is musa dse -fig 4)", *timeline)
	case *dumpBurst != "":
		b := core.SampleBurst(app, *ranks, *seed)
		if err := writeFile(*dumpBurst, func(f *os.File) error { return trace.WriteBurst(f, b) }); err != nil {
			return err
		}
		fmt.Printf("wrote burst trace (%d ranks) to %s\n", *ranks, *dumpBurst)
		return nil
	case *dumpDetailed != "":
		src := &isa.LimitStream{S: apps.NewDetailedStream(app, *seed), N: *n}
		d := &trace.Detailed{App: app.Name, Region: app.Regions[0].Name, Instrs: isa.Collect(src)}
		if err := writeFile(*dumpDetailed, func(f *os.File) error { return trace.WriteDetailed(f, d) }); err != nil {
			return err
		}
		fmt.Printf("wrote detailed trace (%d micro-ops) to %s\n", len(d.Instrs), *dumpDetailed)
		return nil
	}
	return fmt.Errorf("nothing to do: pass -timeline, -dump-burst, -dump-detailed or -summarize")
}

// writeFile creates path, lets write fill it and reports the first error
// of writing and closing.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
