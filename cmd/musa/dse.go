package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"musa"
	"musa/internal/dse"
	"musa/internal/obs"
	"musa/internal/report"
	"musa/internal/serve"
)

// runDSE is `musa dse`: the paper's 864-configuration design space
// exploration and the evaluation figures (Figs. 1, 4-11, Tables I-II).
//
//	musa dse -list                      # print the Table I design space
//	musa dse -fig 5                     # run the sweep, print one figure
//	musa dse -all -csv -sample 100000 -apps hydro,lulesh
//	musa dse -all -cache-dir musa-cache # checkpoint/reuse measurements
//	musa dse -fig 4 -apps spmz -ranks 16 -network hdr200   # rank timeline
//	musa dse -optimize -apps btmz -max-power 150           # search, not sweep
//	musa dse -fleet http://h1:8080,http://h2:8080 -apps hydro -points 0-95
//	musa dse -demo 3 -apps btmz -points 0-31 -verify
//
// The sweep is one KindSweep experiment run through musa.Client; with no
// -fig, -all, -list or -optimize it runs alone and logs a one-line summary.
// With -cache-dir every completed measurement is checkpointed into the
// result store `musa serve` uses, so a killed sweep resumes and a repeated
// one is served from the store; -resume=false recomputes. With -fleet (or
// -demo N loopback workers) the sweep is sharded per annotation group over
// serve replicas' POST /shard, each shard placed by a ring over the workers
// and run locally when its one attempt fails, and merged into the same
// dataset; -verify re-runs the sweep in process and requires byte-identical
// measurements.
func runDSE(fs *flag.FlagSet, args []string) error {
	list := fs.Bool("list", false, "list the design space and exit")
	figure := fs.Int("fig", 0, "figure to regenerate (1, 4, 5, 6, 7, 8, 9, 10, 11)")
	all := fs.Bool("all", false, "regenerate every figure")
	appsFlag := fs.String("apps", "", "comma-separated applications (default all)")
	pointsFlag := fs.String("points", "", "grid indices, e.g. 0-95,100,200-205 (default full 864-point grid)")
	sample := fs.Int64("sample", 0, "detailed sample micro-ops (0 = default)")
	warmup := fs.Int64("warmup", 0, "warmup micro-ops (0 = 2x sample)")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	seed := fs.Uint64("seed", 1, "seed")
	csv := fs.Bool("csv", false, "emit CSV instead of tables")
	jsonOut := fs.Bool("json", false, "emit JSON instead of tables")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	verbose := fs.Bool("v", false, "print client and artifact-cache statistics after the run")
	cacheDir := fs.String("cache-dir", "", "result store directory (empty = no persistence)")
	readOnly := fs.Bool("store-readonly", false, "open the result store read-only (share a directory another process is writing)")
	artifactDir := fs.String("artifact-dir", "", "artifact cache directory (empty = <cache-dir>/artifacts, or in-memory without -cache-dir)")
	noArtifacts := fs.Bool("no-artifacts", false, "disable the artifact cache (rebuild every intermediate)")
	resume := fs.Bool("resume", true, "with -cache-dir, serve already-stored points from the store")
	replayRanks := fs.String("replay-ranks", "", "comma-separated cluster-stage rank counts (default 64,256)")
	noReplay := fs.Bool("no-replay", false, "disable the cluster-level MPI replay stage")
	network := fs.String("network", "", "interconnect model: mn4, hdr200 or eth10 (default mn4)")
	timelineRanks := fs.Int("ranks", 64, "rank count for the -fig 4 timeline")
	fleet := fs.String("fleet", "", "comma-separated serve replica base URLs to shard the sweep over")
	demo := fs.Int("demo", 0, "spawn N in-process serve workers on loopback instead of -fleet")
	shardTimeout := fs.Duration("shard-timeout", 0, "per-shard request bound; a shard past it runs locally (<= 0 = 10m)")
	verify := fs.Bool("verify", false, "re-run the sweep in process and require byte-identical datasets")
	optimize := fs.Bool("optimize", false, "run a successive-halving search over the design space instead of figures")
	objectives := fs.String("objectives", "", "optimize: comma-separated objectives from time,energy,edp (default all)")
	maxPower := fs.Float64("max-power", 0, "optimize: average node power cap in watts (0 = unconstrained)")
	eta := fs.Int("eta", 0, "optimize: halving factor, 2-8 (0 = 4)")
	optRungs := fs.Int("opt-rungs", 0, "optimize: fidelity-ladder depth cap (0 = derived)")
	finalists := fs.Int("finalists", 0, "optimize: full-fidelity finalists (0 = max(4, eta+1))")
	minSample := fs.Int64("min-sample", 0, "optimize: cheap-rung sample floor in micro-ops (0 = 2000)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		tbl := report.NewTable("Table I design space (864 configurations)", "#", "configuration")
		for i := 0; i < musa.PointCount(); i++ {
			label, err := musa.PointLabel(i)
			if err != nil {
				return err
			}
			tbl.AddRow(i, label)
		}
		return tbl.Write(os.Stdout)
	}

	// One sweep experiment feeds every dataset-derived figure; the replay
	// flags are parsed by the Experiment helper `musa serve` also uses.
	exp := musa.Experiment{
		Kind: musa.KindSweep, Apps: splitList(*appsFlag),
		Sample: *sample, Warmup: *warmup, Seed: *seed, Recompute: !*resume,
	}
	if err := exp.SetReplayFlags(*replayRanks, *noReplay, *network); err != nil {
		return err
	}
	if *pointsFlag != "" {
		idx, err := parsePoints(*pointsFlag)
		if err != nil {
			return err
		}
		exp.PointIndices = idx
	}
	if err := exp.Validate(); err != nil {
		return err
	}

	urls := splitList(*fleet)
	if *demo > 0 {
		if len(urls) > 0 {
			return errors.New("give -fleet or -demo, not both")
		}
		var err error
		if urls, err = spawnDemoWorkers(*demo); err != nil {
			return err
		}
	}
	// Opened after the demo workers, whose handlers register their own
	// clients' metrics, so a -metrics dump reports this client's counters.
	client, err := openClient(musa.ClientOptions{
		CacheDir:      *cacheDir,
		StoreReadOnly: *readOnly,
		ArtifactCache: *artifactDir,
		NoArtifacts:   *noArtifacts,
		SweepWorkers:  *workers,
		Workers:       urls,
		ShardTimeout:  *shardTimeout,
	})
	if err != nil {
		return err
	}
	if *verbose {
		defer printStats(client)
	}

	ctx := context.Background()
	if *optimize {
		// Ask a question instead of sweeping: one KindOptimize experiment
		// recovers the grid optimum at a fraction of the grid's cost.
		app := "lulesh"
		if len(exp.Apps) == 1 {
			app = exp.Apps[0]
		} else if len(exp.Apps) > 1 {
			return errors.New("-optimize searches one application; pass -apps with a single name")
		}
		oexp := musa.Experiment{
			Kind: musa.KindOptimize, App: app,
			Sample: *sample, Warmup: *warmup, Seed: *seed, Recompute: !*resume,
			Optimize: &musa.OptimizeSpec{
				Objectives: splitList(*objectives),
				MaxPowerW:  *maxPower, Eta: *eta, Rungs: *optRungs,
				Finalists: *finalists, MinSample: *minSample,
			},
		}
		if err := oexp.SetReplayFlags(*replayRanks, *noReplay, *network); err != nil {
			return err
		}
		if err := oexp.Validate(); err != nil {
			return err
		}
		return runOptimizeSearch(ctx, client, oexp, *jsonOut, *csv, *quiet)
	}

	// Figures 4 and 11 run their own simulations and ignore the sweep
	// dataset; skip the sweep when nothing else was requested.
	var d *musa.Sweep
	if *all || (*figure != 4 && *figure != 11) {
		if d, err = runSweep(ctx, client, exp, len(urls), *quiet, *verify); err != nil {
			return err
		}
	}

	simOpts := musa.SimOptions{SampleInstrs: *sample, WarmupInstrs: *warmup, Seed: *seed}
	for _, n := range musa.FigureNumbers() {
		if !*all && *figure != n {
			continue
		}
		var fig *report.Figure
		if n == 4 {
			// The rank timeline honors the -apps (first entry), -ranks
			// and -network flags instead of the sweep dataset.
			timelineApp := "lulesh"
			if len(exp.Apps) > 0 {
				timelineApp = exp.Apps[0]
			}
			var model musa.NetworkModel
			if *network != "" {
				if model, err = musa.NetworkByName(*network); err != nil {
					return err
				}
			}
			fig, err = musa.RankTimeline(timelineApp, *timelineRanks, model, simOpts)
		} else {
			fig, err = musa.Figure(d, n, simOpts)
		}
		if err != nil {
			return err
		}
		if err := writeFigure(fig, *jsonOut, *csv); err != nil {
			return err
		}
	}
	return nil
}

// runSweep runs the sweep experiment, logs where its measurements came
// from and, with verify, re-runs it on a fresh in-process client and
// requires byte-identical measurements.
func runSweep(ctx context.Context, client *musa.Client, exp musa.Experiment, fleetSize int, quiet, verify bool) (*musa.Sweep, error) {
	var watch musa.Observer
	if !quiet {
		watch.Progress = func(done, total, cached int) {
			if done%200 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\rsweep: %d/%d (%d cached)", done, total, cached)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	start := time.Now()
	res, err := client.RunStream(ctx, exp, watch)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	st := client.Stats()
	log.Printf("merged %d measurements in %v across %d workers (remote %d, local %d, cached %d, redispatched %d shards)",
		len(res.Sweep.Measurements), elapsed.Round(time.Millisecond), fleetSize,
		st.Remote, st.Simulated, st.StoreHits, st.Redispatched)
	if !verify {
		return res.Sweep, nil
	}
	local, err := musa.NewClient(musa.ClientOptions{})
	if err != nil {
		return nil, err
	}
	defer local.Close()
	lstart := time.Now()
	want, err := local.Run(ctx, exp)
	if err != nil {
		return nil, err
	}
	got, err1 := json.Marshal(res.Sweep.Measurements)
	ref, err2 := json.Marshal(want.Sweep.Measurements)
	if err := errors.Join(err1, err2); err != nil {
		return nil, err
	}
	if !bytes.Equal(got, ref) {
		return nil, errors.New("VERIFY FAILED: the dataset differs from the in-process run")
	}
	log.Printf("verify OK: byte-identical to the in-process run (%v local vs %v)",
		time.Since(lstart).Round(time.Millisecond), elapsed.Round(time.Millisecond))
	return res.Sweep, nil
}

// spawnDemoWorkers starts n in-process serve replicas on loopback
// ephemeral ports, built by the same replicaHandler as `musa serve`, and
// returns their base URLs.
func spawnDemoWorkers(n int) ([]string, error) {
	urls := make([]string, n)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		urls[i] = "http://" + ln.Addr().String()
		c, err := openClient(musa.ClientOptions{MaxJobs: 2})
		if err != nil {
			return nil, err
		}
		_, h := replicaHandler(c, 0, defaultAdmitQueue)
		srv := serve.NewServer("", h)
		go func() {
			if err := srv.Serve(ln); err != http.ErrServerClosed {
				log.Printf("demo worker %d: %v", i, err)
			}
		}()
		log.Printf("demo worker %d listening on %s", i, urls[i])
	}
	return urls, nil
}

// parsePoints parses a comma-separated list of grid indices and inclusive
// ranges, "0-95,100,200-205", refusing any index outside the grid before
// it expands a range.
func parsePoints(s string) ([]int, error) {
	index := func(f string) (int, error) {
		i, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || i < 0 || i >= musa.PointCount() {
			return 0, fmt.Errorf("bad point index %q (the grid is 0-%d)", f, musa.PointCount()-1)
		}
		return i, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(f, "-")
		a, err := index(lo)
		if err != nil {
			return nil, err
		}
		b := a
		if isRange {
			if b, err = index(hi); err != nil {
				return nil, err
			}
			if a > b {
				return nil, fmt.Errorf("bad point range %q", f)
			}
		}
		for i := a; i <= b; i++ {
			out = append(out, i)
		}
	}
	return out, nil
}

// writeFigure prints a figure as JSON, CSV or text tables.
func writeFigure(fig *report.Figure, jsonOut, csvOut bool) error {
	if jsonOut {
		return fig.WriteJSON(os.Stdout)
	}
	for _, t := range fig.Tables {
		write := t.Write
		if csvOut {
			write = t.WriteCSV
		}
		if err := write(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if fig.Text != "" && !csvOut {
		fmt.Println(fig.Text)
	}
	return nil
}

// runOptimizeSearch executes the -optimize mode and renders the rung
// history, the Pareto frontier, the recommendation and the cost saving
// against an exhaustive grid sweep.
func runOptimizeSearch(ctx context.Context, client *musa.Client, exp musa.Experiment, jsonOut, csvOut, quiet bool) error {
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
		return err
	}
	o := res.Optimize
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(o)
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
	if err := writeFigure(&report.Figure{Tables: []*report.Table{rungs, frontier}}, false, csvOut); err != nil {
		return err
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
	return nil
}

// printStats renders the -v report: the per-stage time table from the
// process metrics registry (one row per dse pipeline stage with call
// count, total and mean wall time), then the client and artifact-cache
// counters.
func printStats(client *musa.Client) {
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
}
