package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"musa"
	"musa/internal/ring"
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
	if *peers != "" {
		if *self == "" {
			return errors.New("-peers requires -self (this replica's own URL in the ring)")
		}
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
	// Draining first: /healthz flips to 503 so routers stop sending work
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

// runRouter is `musa router`: a thin L7 front door for a ring of serve
// replicas. It derives the content-addressed route key of each request
// (serve.NewRouter) and forwards it to the replica the rendezvous ring
// ranks highest, so duplicate requests from many clients converge on one
// replica's single-flight and store whichever front door they entered
// through. It holds no store and runs no simulations, so any number of
// routers can run behind one DNS name.
//
//	musa router -addr :8079 -replicas http://h1:8080,http://h2:8080,http://h3:8080
//
// Replicas that fail a probe or a forward are routed around until they
// pass again; a replica whose /healthz says draining or overloaded gets no
// new work but keeps its in-flight streams. The route-key contract
// requires the router to run with the replicas' default-fidelity flags
// (-sample, -warmup, -seed, -replay-ranks, -no-replay, -network).
func runRouter(fs *flag.FlagSet, args []string) error {
	addr := fs.String("addr", ":8079", "listen address")
	replicas := fs.String("replicas", "", "comma-separated serve replica base URLs (required)")
	sample := fs.Int64("sample", 0, "default detailed sample micro-ops — must match the replicas")
	warmup := fs.Int64("warmup", 0, "default warmup micro-ops — must match the replicas")
	seed := fs.Uint64("seed", 1, "default seed — must match the replicas")
	replayRanks := fs.String("replay-ranks", "", "default cluster-stage rank counts — must match the replicas")
	noReplay := fs.Bool("no-replay", false, "default replay disablement — must match the replicas")
	network := fs.String("network", "", "default interconnect model — must match the replicas")
	probeEvery := fs.Duration("probe-interval", 3*time.Second, "healthz probe period per replica")
	if err := fs.Parse(args); err != nil {
		return err
	}
	members := splitList(*replicas)
	if len(members) == 0 {
		return errors.New("no replicas: pass -replicas URLS")
	}
	var defaults musa.Experiment
	if err := defaults.SetReplayFlags(*replayRanks, *noReplay, *network); err != nil {
		return err
	}
	// The client exists only to derive route keys with the normalization
	// the replicas apply; it never opens a store or runs a simulation.
	rg := musa.NewRing("", members)
	keyer, err := openClient(musa.ClientOptions{
		NoArtifacts:  true,
		SampleInstrs: *sample,
		WarmupInstrs: *warmup,
		Seed:         *seed,
		ReplayRanks:  defaults.ReplayRanks,
		NoReplay:     defaults.NoReplay,
		Network:      defaults.Network,
		Ring:         rg,
	})
	if err != nil {
		return err
	}
	ctx, stopProbe := context.WithCancel(context.Background())
	defer stopProbe()
	go probe(ctx, rg, *probeEvery)
	log.Printf("routing %d replicas on %s", rg.Len(), *addr)
	return serveUntilSignal(serve.NewServer(*addr, serve.NewRouter(keyer)), func() {
		stopProbe()
		log.Print("shutting down")
	})
}

// probe polls every replica's /healthz on a fixed period, until ctx ends,
// and feeds the result into the ring's health states, which reorder routing
// preferences without changing key ownership. It is the only source of the
// Overloaded and Draining states, and its verdict replaces a forward's
// transport-failure mark (ring.MarkDown) either way.
func probe(ctx context.Context, rg *musa.Ring, every time.Duration) {
	httpc := &http.Client{Timeout: 2 * time.Second}
	for {
		for _, m := range rg.Members() {
			rg.SetState(m.URL, probeOne(httpc, m.URL))
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(every):
		}
	}
}

func probeOne(httpc *http.Client, base string) musa.RingState {
	resp, err := httpc.Get(base + "/healthz")
	if err != nil {
		return musa.RingDown
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	// An undecodable body leaves Status empty, which ParseState refuses.
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<12)).Decode(&body)
	if st, err := ring.ParseState(body.Status); err == nil {
		return st
	}
	if resp.StatusCode == http.StatusOK {
		return musa.RingOk
	}
	return musa.RingDown
}
