// musa-dse runs the paper's 864-configuration design space exploration and
// regenerates the evaluation figures (Figs. 1, 5-11, Tables I-II).
//
// Usage:
//
//	musa-dse -list                 # print the Table I design space
//	musa-dse -fig 5                # run the sweep, print one figure
//	musa-dse -all                  # run the sweep, print every figure
//	musa-dse -all -csv -sample 100000 -apps hydro,lulesh
//	musa-dse -all -cache-dir musa-cache   # checkpoint/reuse measurements
//
// The sweep is one KindSweep experiment run through the unified musa.Client
// API. With -cache-dir, every completed measurement is appended to the
// content-addressed result store as it finishes: a killed sweep resumes
// from its checkpoint, and a repeated run over the same points is served
// from the store. -resume=false forces recomputation (still overwriting
// the store). The store is the same one musa-serve uses — keys are the
// canonical experiment encodings — so the CLI and the server share one
// result pipeline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"musa"
	"musa/internal/dse"
	"musa/internal/obs"
	"musa/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("musa-dse: ")

	list := flag.Bool("list", false, "list the design space and exit")
	figure := flag.Int("fig", 0, "figure to regenerate (1, 4, 5, 6, 7, 8, 9, 10, 11)")
	all := flag.Bool("all", false, "regenerate every figure")
	appsFlag := flag.String("apps", "", "comma-separated applications (default all)")
	sample := flag.Int64("sample", 0, "detailed sample micro-ops (0 = default)")
	warmup := flag.Int64("warmup", 0, "warmup micro-ops (0 = 2x sample)")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 1, "seed")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	jsonOut := flag.Bool("json", false, "emit JSON instead of tables")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	verbose := flag.Bool("v", false, "print client and artifact-cache statistics after the run")
	cacheDir := flag.String("cache-dir", "", "result store directory (empty = no persistence)")
	readOnly := flag.Bool("store-readonly", false, "open the result store read-only (share a directory another process is writing)")
	artifactDir := flag.String("artifact-dir", "", "artifact cache directory (empty = <cache-dir>/artifacts, or in-memory without -cache-dir)")
	noArtifacts := flag.Bool("no-artifacts", false, "disable the artifact cache (rebuild every intermediate)")
	resume := flag.Bool("resume", true, "with -cache-dir, serve already-stored points from the store")
	replayRanks := flag.String("replay-ranks", "", "comma-separated cluster-stage rank counts (default 64,256)")
	noReplay := flag.Bool("no-replay", false, "disable the cluster-level MPI replay stage")
	network := flag.String("network", "", "interconnect model: mn4, hdr200 or eth10 (default mn4)")
	timelineRanks := flag.Int("ranks", 64, "rank count for the -fig 4 timeline")
	optimize := flag.Bool("optimize", false, "run a successive-halving search over the design space instead of figures")
	objectives := flag.String("objectives", "", "optimize: comma-separated objectives from time,energy,edp (default all)")
	maxPower := flag.Float64("max-power", 0, "optimize: average node power cap in watts (0 = unconstrained)")
	eta := flag.Int("eta", 0, "optimize: halving factor, 2-8 (0 = 4)")
	optRungs := flag.Int("opt-rungs", 0, "optimize: fidelity-ladder depth cap (0 = derived)")
	finalists := flag.Int("finalists", 0, "optimize: full-fidelity finalists (0 = max(4, eta+1))")
	minSample := flag.Int64("min-sample", 0, "optimize: cheap-rung sample floor in micro-ops (0 = 2000)")
	obsDump := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	defer func() {
		if err := obsDump(); err != nil {
			log.Print(err)
		}
	}()

	if *list {
		tbl := report.NewTable("Table I design space (864 configurations)", "#", "configuration")
		for i := 0; i < musa.PointCount(); i++ {
			label, err := musa.PointLabel(i)
			if err != nil {
				log.Fatal(err)
			}
			tbl.AddRow(i, label)
		}
		must(tbl.Write(os.Stdout))
		return
	}
	if *figure == 0 && !*all && !*optimize {
		log.Fatal("nothing to do: pass -list, -fig N, -all or -optimize")
	}

	// One sweep experiment feeds every dataset-derived figure; the replay
	// flags are parsed by the shared Experiment helper musa-serve also uses.
	exp := musa.Experiment{
		Kind:      musa.KindSweep,
		Sample:    *sample,
		Warmup:    *warmup,
		Seed:      *seed,
		Recompute: !*resume,
	}
	if err := exp.SetReplayFlags(*replayRanks, *noReplay, *network); err != nil {
		log.Fatal(err)
	}
	if *appsFlag != "" {
		exp.Apps = strings.Split(*appsFlag, ",")
	}
	if err := exp.Validate(); err != nil {
		log.Fatal(err)
	}

	client, err := musa.NewClient(musa.ClientOptions{
		CacheDir:      *cacheDir,
		StoreReadOnly: *readOnly,
		ArtifactCache: *artifactDir,
		NoArtifacts:   *noArtifacts,
		SweepWorkers:  *workers,
	})
	if err != nil {
		if errors.Is(err, musa.ErrStoreBusy) {
			log.Fatalf("%v\nanother process is writing %s; pass -store-readonly to read from it anyway", err, *cacheDir)
		}
		log.Fatal(err)
	}
	defer client.Close()
	client.RegisterMetrics(obs.DefaultRegistry())
	if *verbose {
		defer func() {
			printStageBreakdown()
			snap := client.Snapshot()
			st := snap.Stats
			fmt.Fprintf(os.Stderr, "stats: %d requests, %d store hits, %d simulated\n",
				st.Requests, st.StoreHits, st.Simulated)
			as := snap.Artifacts.Stats
			fmt.Fprintf(os.Stderr,
				"artifacts: %d entries; hit-rates %d/%d hit/miss, latency %d/%d, burst %d/%d; %d B read, %d B written\n",
				as.Entries,
				as.HitRates.Hits, as.HitRates.Misses,
				as.LatencyModels.Hits, as.LatencyModels.Misses,
				as.Bursts.Hits, as.Bursts.Misses,
				as.BytesRead, as.BytesWritten)
			if snap.Artifacts.Err != "" {
				fmt.Fprintf(os.Stderr, "artifacts: degraded: %s\n", snap.Artifacts.Err)
			}
		}()
	}

	var watch musa.Observer
	if !*quiet {
		watch.Progress = func(done, total, cached int) {
			if done%200 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\rsweep: %d/%d (%d cached)", done, total, cached)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}

	ctx := context.Background()
	if *optimize {
		// Ask a question instead of sweeping: one KindOptimize experiment
		// recovers the grid optimum at a fraction of the grid's cost.
		app := "lulesh"
		if len(exp.Apps) == 1 {
			app = exp.Apps[0]
		} else if len(exp.Apps) > 1 {
			log.Fatal("-optimize searches one application; pass -apps with a single name")
		}
		oexp := musa.Experiment{
			Kind: musa.KindOptimize, App: app,
			Sample: *sample, Warmup: *warmup, Seed: *seed, Recompute: !*resume,
			Optimize: &musa.OptimizeSpec{
				MaxPowerW: *maxPower, Eta: *eta, Rungs: *optRungs,
				Finalists: *finalists, MinSample: *minSample,
			},
		}
		if *objectives != "" {
			oexp.Optimize.Objectives = strings.Split(*objectives, ",")
		}
		if err := oexp.SetReplayFlags(*replayRanks, *noReplay, *network); err != nil {
			log.Fatal(err)
		}
		if err := oexp.Validate(); err != nil {
			log.Fatal(err)
		}
		runOptimizeSearch(ctx, client, oexp, *jsonOut, *csv, *quiet)
		return
	}

	// Figures 4 and 11 run their own simulations and ignore the sweep
	// dataset; skip the sweep when nothing else was requested.
	var d *musa.Sweep
	if *all || (*figure != 4 && *figure != 11) {
		res, err := client.RunStream(ctx, exp, watch)
		if err != nil {
			log.Fatal(err)
		}
		d = res.Sweep
	}

	simOpts := musa.SimOptions{SampleInstrs: *sample, WarmupInstrs: *warmup, Seed: *seed}
	for _, n := range musa.FigureNumbers() {
		if !*all && *figure != n {
			continue
		}
		var fig *report.Figure
		var err error
		if n == 4 {
			// The rank timeline honors the -apps (first entry), -ranks
			// and -network flags instead of the sweep dataset.
			timelineApp := "lulesh"
			if len(exp.Apps) > 0 {
				timelineApp = exp.Apps[0]
			}
			var model musa.NetworkModel
			if *network != "" {
				model, err = musa.NetworkByName(*network)
				if err != nil {
					log.Fatal(err)
				}
			}
			fig, err = musa.RankTimeline(timelineApp, *timelineRanks, model, simOpts)
		} else {
			fig, err = musa.Figure(d, n, simOpts)
		}
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut {
			must(fig.WriteJSON(os.Stdout))
			continue
		}
		for _, t := range fig.Tables {
			if *csv {
				must(t.WriteCSV(os.Stdout))
			} else {
				must(t.Write(os.Stdout))
			}
			fmt.Println()
		}
		if fig.Text != "" && !*csv {
			fmt.Println(fig.Text)
		}
	}
}

// runOptimizeSearch executes the -optimize mode and renders the rung
// history, the Pareto frontier, the recommendation and the cost saving
// against an exhaustive grid sweep.
func runOptimizeSearch(ctx context.Context, client *musa.Client, exp musa.Experiment, jsonOut, csvOut, quiet bool) {
	var watch musa.Observer
	if !quiet {
		watch.Progress = func(done, total, cached int) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\roptimize: %d/%d probes (%d cached)", done, total, cached)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		watch.Rung = func(r musa.RungSummary) {
			fmt.Fprintf(os.Stderr, "\rrung %d: %d candidates at %.1f%% fidelity -> %d survivors\n",
				r.Rung, r.Candidates, 100*r.FidelityFraction, len(r.Survivors))
		}
	}
	res, err := client.RunStream(ctx, exp, watch)
	if err != nil {
		log.Fatal(err)
	}
	o := res.Optimize
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		must(enc.Encode(o))
		return
	}
	rungs := report.NewTable(
		fmt.Sprintf("successive halving: %s, %d candidates", o.App, o.Candidates),
		"rung", "candidates", "fidelity", "sample", "replay", "cost Minstr", "survivors")
	for _, r := range o.Rungs {
		rungs.AddRow(r.Rung, r.Candidates, fmt.Sprintf("%.1f%%", 100*r.FidelityFraction),
			r.Sample, r.Replay, fmt.Sprintf("%.1f", float64(r.CostInstrs)/1e6), len(r.Survivors))
	}
	frontier := report.NewTable("Pareto frontier (full fidelity)",
		"#", "configuration", "time ms", "energy J", "EDP mJs", "power W", "feasible")
	for _, fp := range o.Frontier {
		frontier.AddRow(fp.PointIndex, fp.Label,
			fmt.Sprintf("%.3f", fp.Objectives.TimeNs/1e6),
			fmt.Sprintf("%.3f", fp.Objectives.EnergyJ),
			fmt.Sprintf("%.3f", fp.Objectives.EDP*1e3),
			fmt.Sprintf("%.1f", fp.PowerW),
			fp.Feasible)
	}
	for _, t := range []*report.Table{rungs, frontier} {
		if csvOut {
			must(t.WriteCSV(os.Stdout))
		} else {
			must(t.Write(os.Stdout))
		}
		fmt.Println()
	}
	if o.Best != nil {
		fmt.Printf("best: #%d %s (EDP %.3f mJs)\n",
			o.Best.PointIndex, o.Best.Label, o.Best.Objectives.EDP*1e3)
	}
	if o.Infeasible {
		fmt.Printf("note: no configuration satisfies the %g W power cap; frontier is unconstrained\n",
			o.MaxPowerW)
	}
	fmt.Printf("cost: %.1f Minstr probed vs %.1f Minstr grid (ratio %.3f)\n",
		float64(o.ProbeCostInstrs)/1e6, float64(o.GridCostInstrs)/1e6, o.CostRatio)
}

// printStageBreakdown renders the per-stage time table from the process
// metrics registry: one row per dse pipeline stage with call count, total
// and mean wall time, so -v shows where a sweep actually spent its time.
func printStageBreakdown() {
	for _, fam := range obs.DefaultRegistry().Snapshot() {
		if fam.Name != dse.StageMetric {
			continue
		}
		fmt.Fprintf(os.Stderr, "stage breakdown:\n")
		fmt.Fprintf(os.Stderr, "  %-16s %8s %12s %12s\n", "stage", "calls", "total", "mean")
		for _, s := range fam.Series {
			stage := "?"
			for _, l := range s.Labels {
				if l.Name == "stage" {
					stage = l.Value
				}
			}
			mean := 0.0
			if s.Count > 0 {
				mean = s.Value / float64(s.Count)
			}
			fmt.Fprintf(os.Stderr, "  %-16s %8d %11.3fs %10.3fms\n",
				stage, s.Count, s.Value, mean*1e3)
		}
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
