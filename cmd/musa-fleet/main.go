// musa-fleet is the distributed-sweep coordinator: it splits a design-space
// sweep into per-annotation-group shards, dispatches them across a fleet of
// musa-serve workers over the /shard endpoint, and merges the results into
// the same deterministic dataset the in-process runner produces. Failed or
// slow shards are re-dispatched onto the local pool, so a flaky worker
// costs throughput, never correctness.
//
// Usage:
//
//	# Two workers on other machines (each: musa-serve -addr :8080).
//	musa-fleet -workers http://h1:8080,http://h2:8080 -apps hydro -sample 60000
//
//	# Self-contained demo: coordinator + 2 in-process workers on loopback.
//	musa-fleet -demo 2 -apps btmz -points 0-31 -sample 20000
//
//	# Prove the determinism contract: re-run in process and compare.
//	musa-fleet -demo 2 -apps btmz -points 0-31 -sample 20000 -verify
//
//	# Ring mode: each shard goes to the worker owning its artifact key, so
//	# a replica tier's caches, /simulate traffic and shards all converge.
//	musa-fleet -demo 3 -ring -apps btmz -points 0-31 -sample 20000 -verify
//
// With -cache-dir, every merged measurement is checkpointed into the
// coordinator's content-addressed store under the same node keys the
// in-process runner writes, so musa-dse, musa-serve and repeated fleet
// runs all share one result set.
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
	"musa/internal/obs"
	"musa/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("musa-fleet: ")

	workersFlag := flag.String("workers", "", "comma-separated musa-serve base URLs")
	demo := flag.Int("demo", 0, "spawn N in-process workers on loopback instead of -workers")
	appsFlag := flag.String("apps", "", "comma-separated applications (default all five)")
	pointsFlag := flag.String("points", "", "grid indices, e.g. 0-95,100,200-205 (default full 864-point grid)")
	sample := flag.Int64("sample", 0, "detailed sample micro-ops (0 = default)")
	warmup := flag.Int64("warmup", 0, "warmup micro-ops (0 = 2x sample)")
	seed := flag.Uint64("seed", 1, "seed")
	replayRanks := flag.String("replay-ranks", "", "comma-separated cluster-stage rank counts (default 64,256)")
	noReplay := flag.Bool("no-replay", false, "disable the cluster-level MPI replay stage")
	network := flag.String("network", "", "interconnect model: mn4, hdr200 or eth10 (default mn4)")
	cacheDir := flag.String("cache-dir", "", "coordinator result store directory (empty = none)")
	readOnly := flag.Bool("store-readonly", false, "open the coordinator result store read-only (share a directory another process is writing)")
	artifactDir := flag.String("artifact-dir", "", "coordinator artifact cache directory (empty = <cache-dir>/artifacts, or in-memory)")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-shard request bound (0 = 10m, negative = unbounded)")
	hedgeAfter := flag.Duration("hedge-after", 0, "hedge still-running shards onto the local pool after this long (0 = off)")
	ringFlag := flag.Bool("ring", false, "dispatch each shard to the worker owning its artifact key (rendezvous ring over -workers; -demo workers form the same ring)")
	verify := flag.Bool("verify", false, "re-run the sweep in process and require byte-identical datasets")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	obsDump := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	defer func() {
		if err := obsDump(); err != nil {
			log.Print(err)
		}
	}()

	var workers []string
	if *workersFlag != "" {
		workers = strings.Split(*workersFlag, ",")
	}
	if *demo > 0 {
		if len(workers) > 0 {
			log.Fatal("give -workers or -demo, not both")
		}
		workers = spawnDemoWorkers(*demo, *ringFlag)
	}
	if len(workers) == 0 {
		log.Fatal("no workers: pass -workers URLS or -demo N")
	}

	exp := musa.Experiment{Kind: musa.KindSweep, Sample: *sample, Warmup: *warmup, Seed: *seed}
	if err := exp.SetReplayFlags(*replayRanks, *noReplay, *network); err != nil {
		log.Fatal(err)
	}
	if *appsFlag != "" {
		exp.Apps = strings.Split(*appsFlag, ",")
	}
	if *pointsFlag != "" {
		idx, err := parsePoints(*pointsFlag)
		if err != nil {
			log.Fatal(err)
		}
		exp.PointIndices = idx
	}
	if err := exp.Validate(); err != nil {
		log.Fatal(err)
	}

	// With -ring the coordinator routes each shard to the worker the
	// rendezvous ring ranks highest for its annotation key (self stays empty:
	// the coordinator dispatches into the ring without being a member).
	var rg *musa.Ring
	if *ringFlag {
		rg = musa.NewRing("", workers)
	}
	coord, err := musa.NewClient(musa.ClientOptions{
		CacheDir:      *cacheDir,
		StoreReadOnly: *readOnly,
		ArtifactCache: *artifactDir,
		Workers:       workers,
		ShardTimeout:  *shardTimeout,
		HedgeAfter:    *hedgeAfter,
		Ring:          rg,
	})
	if err != nil {
		if errors.Is(err, musa.ErrStoreBusy) {
			log.Fatalf("%v\nanother process is writing %s; pass -store-readonly to read from it anyway", err, *cacheDir)
		}
		log.Fatal(err)
	}
	defer coord.Close()
	// Demo workers register their clients' metrics when their handlers are
	// built; re-register afterwards so a -metrics dump reports the
	// coordinator's counters, not the last demo worker's.
	coord.RegisterMetrics(obs.DefaultRegistry())

	var watch musa.Observer
	if !*quiet {
		watch.Progress = func(done, total, cached int) {
			fmt.Fprintf(os.Stderr, "\rfleet: %d/%d (%d cached)", done, total, cached)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	start := time.Now()
	res, err := coord.RunStream(context.Background(), exp, watch)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	st := coord.Stats()
	log.Printf("merged %d measurements in %v across %d workers (remote %d, local %d, cached %d, redispatched %d shards, %d artifacts pushed)",
		len(res.Sweep.Measurements), elapsed.Round(time.Millisecond), len(workers),
		st.Remote, st.Simulated, st.StoreHits, st.Redispatched, st.ArtifactsPushed)

	if *verify {
		local, err := musa.NewClient(musa.ClientOptions{})
		if err != nil {
			log.Fatal(err)
		}
		defer local.Close()
		lstart := time.Now()
		want, err := local.Run(context.Background(), exp)
		if err != nil {
			log.Fatal(err)
		}
		if !datasetsEqual(res.Sweep, want.Sweep) {
			log.Fatal("VERIFY FAILED: fleet dataset differs from the in-process run")
		}
		log.Printf("verify OK: byte-identical to the in-process run (%v local vs %v fleet)",
			time.Since(lstart).Round(time.Millisecond), elapsed.Round(time.Millisecond))
	}
}

// spawnDemoWorkers starts n in-process musa-serve workers on loopback
// ephemeral ports — the same handler stack the real binary serves — and
// returns their base URLs. The listeners all bind before any worker is
// built, so with ring enabled every worker knows the full membership
// (including itself) from the start.
func spawnDemoWorkers(n int, ringMode bool) []string {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i, ln := range lns {
		var rg *musa.Ring
		if ringMode {
			rg = musa.NewRing(urls[i], urls)
		}
		c, err := musa.NewClient(musa.ClientOptions{MaxJobs: 2, Ring: rg})
		if err != nil {
			log.Fatal(err)
		}
		srv := serve.NewServer("", serve.NewHandler(serve.New(c)))
		go func() {
			if err := srv.Serve(ln); err != http.ErrServerClosed {
				log.Printf("demo worker %d: %v", i, err)
			}
		}()
		log.Printf("demo worker %d listening on %s", i, urls[i])
	}
	return urls
}

// parsePoints parses a comma-separated list of grid indices and inclusive
// ranges: "0-95,100,200-205".
func parsePoints(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if lo, hi, ok := strings.Cut(f, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("bad point range %q", f)
			}
			for i := a; i <= b; i++ {
				out = append(out, i)
			}
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad point index %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// datasetsEqual compares two sweep datasets by their canonical JSON bytes.
func datasetsEqual(a, b *musa.Sweep) bool {
	ja, err1 := json.Marshal(a.Measurements)
	jb, err2 := json.Marshal(b.Measurements)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}
