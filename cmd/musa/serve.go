package main

import (
	"errors"
	"flag"
	"log"
	"net/http"
	"os"

	"musa"
	"musa/internal/serve"
)

// runServe is `musa serve`: the simulation pipeline as an HTTP service
// backed by the content-addressed result store. Repeated requests are
// store hits, duplicate in-flight requests coalesce into one computation,
// and sweeps checkpoint as they go, so a restarted server resumes them.
// The handlers decode requests straight into musa.Experiment and run them
// through one musa.Client, the pipeline (and keys) `musa dse` uses.
//
//	musa serve -addr :8080 -cache-dir musa-cache
//	musa serve -addr :8080 -self http://h1:8080 -peers http://h1:8080,http://h2:8080
//
// The API (/simulate, /dse, /optimize, /shard, /figures/{n}, /stats,
// /healthz, /metrics, ...) is documented on serve.NewHandler. Every
// measurement carries the cluster-level replay metrics unless -no-replay
// is set or the request opts out. SIGINT or SIGTERM drains the replica
// (/healthz answers 503, new heavy requests shed), lets in-flight requests
// finish and closes the store.
func runServe(fs *flag.FlagSet, args []string) error {
	addr := fs.String("addr", ":8080", "listen address")
	cacheDir := fs.String("cache-dir", "musa-cache", "result store directory")
	readOnly := fs.Bool("store-readonly", false, "open the result store read-only (share a directory a sweep is writing)")
	artifactDir := fs.String("artifact-dir", "", "artifact cache directory (empty = <cache-dir>/artifacts)")
	noArtifacts := fs.Bool("no-artifacts", false, "disable the artifact cache (rebuild every intermediate)")
	lru := fs.Int("lru", 0, "in-memory LRU entries (0 = default)")
	workers := fs.Int("workers", 0, "simulation workers per job (0 = GOMAXPROCS)")
	maxJobs := fs.Int("max-jobs", 2, "concurrently executing simulation jobs")
	sample := fs.Int64("sample", 0, "default detailed sample micro-ops (0 = package default)")
	warmup := fs.Int64("warmup", 0, "default warmup micro-ops (0 = 2x sample)")
	seed := fs.Uint64("seed", 1, "default seed")
	replayRanks := fs.String("replay-ranks", "", "comma-separated cluster-stage rank counts (default 64,256)")
	noReplay := fs.Bool("no-replay", false, "disable the cluster-level MPI replay stage")
	network := fs.String("network", "", "interconnect model: mn4, hdr200 or eth10 (default mn4)")
	pprofFlag := fs.Bool("pprof", false, "expose runtime profiles under GET /debug/pprof/")
	accessLog := fs.Bool("access-log", false, "log one line per completed HTTP request")
	self := fs.String("self", "", "this replica's advertised base URL (enables ring routing, e.g. http://host:8080)")
	peers := fs.String("peers", "", "comma-separated replica base URLs forming the ring (including -self)")
	admit := fs.Int("admit", 0, "max concurrently admitted heavy requests (0 = 4x max-jobs, negative = unlimited)")
	admitQueue := fs.Int("admit-queue", defaultAdmitQueue, "max heavy requests waiting for admission before shedding with 429")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The replay flags share one parser with `musa dse`: SetReplayFlags on
	// a defaults experiment, validated before anything opens.
	var defaults musa.Experiment
	if err := defaults.SetReplayFlags(*replayRanks, *noReplay, *network); err != nil {
		return err
	}
	// A ring makes this replica one of several equivalent front doors: it
	// proxies /simulate misses it does not own to their owner, the replica
	// of their cache group. The key-derivation contract requires identical
	// default flags on every replica.
	var rg *musa.Ring
	switch {
	case *peers != "" && *self == "":
		return errors.New("-peers requires -self (this replica's own URL in the ring)")
	case *self != "" && *peers == "":
		return errors.New("-self requires -peers (the ring's members, -self included)")
	case *peers != "":
		rg = musa.NewRing(*self, splitList(*peers))
	}
	client, err := openClient(musa.ClientOptions{
		CacheDir:      *cacheDir,
		StoreReadOnly: *readOnly,
		ArtifactCache: *artifactDir,
		NoArtifacts:   *noArtifacts,
		LRUEntries:    *lru,
		SweepWorkers:  *workers,
		MaxJobs:       *maxJobs,
		SampleInstrs:  *sample,
		WarmupInstrs:  *warmup,
		Seed:          *seed,
		ReplayRanks:   defaults.ReplayRanks,
		NoReplay:      defaults.NoReplay,
		Network:       defaults.Network,
		Ring:          rg,
	})
	if err != nil {
		return err
	}
	snap := client.Snapshot()
	mode := ""
	if snap.Store.ReadOnly {
		mode = " (read-only)"
	}
	log.Printf("store %s%s: %d measurements", *cacheDir, mode, snap.Store.Len)
	if snap.Artifacts.Enabled {
		log.Printf("artifact cache: %d artifacts", snap.Artifacts.Stats.Entries)
	}
	log.Printf("advertising capacity: %d concurrent jobs (/capacity)", snap.Jobs.Max)

	var opts []serve.Option
	if *pprofFlag {
		opts = append(opts, serve.WithPprof())
		log.Print("pprof enabled under /debug/pprof/")
	}
	if *accessLog {
		opts = append(opts, serve.WithAccessLog(log.New(os.Stderr, "access: ", 0)))
	}
	if rg != nil {
		log.Printf("ring: self=%s members=%d", rg.Self(), rg.Len())
	}
	svc, h := replicaHandler(client, *admit, *admitQueue, opts...)
	log.Printf("listening on %s", *addr)
	// Draining first: /healthz flips to 503 so load balancers stop sending work
	// and new heavy requests shed, while the shutdown lets in-flight NDJSON
	// streams run to completion (sweeps checkpoint through the store, so
	// stopping them loses nothing beyond the points in flight).
	if err := serveUntilSignal(serve.NewServer(*addr, h), func() {
		svc.StartDraining()
		log.Print("draining, then shutting down")
	}); err != nil {
		return err
	}
	if err := client.Close(); err != nil {
		return err
	}
	log.Printf("store %s: %d measurements", *cacheDir, client.Snapshot().Store.Len)
	return nil
}

// defaultAdmitQueue is how many heavy requests a replica queues for
// admission before it sheds with 429.
const defaultAdmitQueue = 64

// replicaHandler builds the handler stack of one serve replica over c, the
// one `musa serve` answers with and `musa dse -demo` starts on loopback.
// Admission control is on here, unlike in the serve library: a replica
// taking traffic sheds overload with 429 + Retry-After instead of queueing
// without bound. admit 0 admits four requests per job slot; a negative
// admit turns admission off.
func replicaHandler(c *musa.Client, admit, admitQueue int, opts ...serve.Option) (*serve.Service, http.Handler) {
	if admit == 0 {
		admit = 4 * c.Snapshot().Jobs.Max
	}
	if admit > 0 {
		opts = append(opts, serve.WithAdmission(admit, admitQueue))
		log.Printf("admission: %d concurrent, %d queued, then 429", admit, admitQueue)
	}
	svc := serve.New(c)
	return svc, serve.NewHandler(svc, opts...)
}
