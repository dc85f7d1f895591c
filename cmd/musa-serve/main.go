// musa-serve exposes the simulation pipeline as an HTTP service backed by
// the content-addressed result store: repeated requests are cache hits,
// duplicate in-flight requests coalesce into one computation, and batch
// sweeps checkpoint incrementally so a restarted server resumes them. The
// handlers decode requests straight into musa.Experiment and execute them
// through one shared musa.Client — the same pipeline (and cache keys) the
// musa-dse CLI uses.
//
// Usage:
//
//	musa-serve -addr :8080 -cache-dir musa-cache
//
// API:
//
//	GET  /apps         the five application models
//	GET  /points       the 864-point Table I design space
//	GET  /capacity     advertised -max-jobs and in-flight jobs (fleet probe)
//	POST /simulate     {"app":"lulesh","pointIndex":42} -> one measurement
//	POST /dse          {"apps":["hydro"],"sample":60000} -> NDJSON stream
//	POST /optimize     {"app":"hydro","optimize":{}} -> NDJSON rung stream
//	POST /shard        {"apps":["hydro"],"pointIndices":[0,1]} -> plain JSON
//	GET  /artifact/{key}  one encoded sweep artifact (annotation, latency
//	                      model, burst trace) from the artifact cache
//	PUT  /artifact/{key}  store a pushed artifact (fleet coordinators ship
//	                      these ahead of shards)
//	GET  /figures/{n}  JSON data for figure n (1, 4-11)
//	GET  /figures/4    rank timeline: ?app=lulesh&ranks=64&network=mn4
//	GET  /stats        client counters, store size, artifact-cache counters
//	GET  /healthz      replica health: ok / draining / overloaded (non-ok is 503)
//	GET  /membership   the replica ring (with -self/-peers)
//	PUT  /membership   replace the ring membership at runtime
//	GET  /metrics      Prometheus text metrics (HTTP, client, store, stages)
//	GET  /debug/trace  recorded spans (NDJSON; ?format=chrome for tracing UIs)
//	GET  /debug/pprof/ runtime profiles (only with -pprof)
//
// Every measurement carries the cluster-level replay metrics (EndToEndNs,
// MPIFraction, ParallelEff per configured rank count) unless -no-replay is
// set or the request opts out.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"musa"
	"musa/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("musa-serve: ")

	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache-dir", "musa-cache", "result store directory")
	readOnly := flag.Bool("store-readonly", false, "open the result store read-only (share a directory a sweep is writing)")
	artifactDir := flag.String("artifact-dir", "", "artifact cache directory (empty = <cache-dir>/artifacts)")
	noArtifacts := flag.Bool("no-artifacts", false, "disable the artifact cache (rebuild every intermediate)")
	lru := flag.Int("lru", 0, "in-memory LRU entries (0 = default)")
	workers := flag.Int("workers", 0, "simulation workers per job (0 = GOMAXPROCS)")
	maxJobs := flag.Int("max-jobs", 2, "concurrently executing simulation jobs")
	sample := flag.Int64("sample", 0, "default detailed sample micro-ops (0 = package default)")
	warmup := flag.Int64("warmup", 0, "default warmup micro-ops (0 = 2x sample)")
	seed := flag.Uint64("seed", 1, "default seed")
	replayRanks := flag.String("replay-ranks", "", "comma-separated cluster-stage rank counts (default 64,256)")
	noReplay := flag.Bool("no-replay", false, "disable the cluster-level MPI replay stage")
	network := flag.String("network", "", "interconnect model: mn4, hdr200 or eth10 (default mn4)")
	pprofFlag := flag.Bool("pprof", false, "expose runtime profiles under GET /debug/pprof/")
	accessLog := flag.Bool("access-log", false, "log one line per completed HTTP request")
	self := flag.String("self", "", "this replica's advertised base URL (enables ring routing, e.g. http://host:8080)")
	peers := flag.String("peers", "", "comma-separated replica base URLs forming the ring (including -self)")
	admit := flag.Int("admit", 0, "max concurrently admitted heavy requests (0 = 4x max-jobs, negative = unlimited)")
	admitQueue := flag.Int("admit-queue", 64, "max heavy requests waiting for admission before shedding with 429")
	flag.Parse()

	// The replay flags share one parser with musa-dse: SetReplayFlags on a
	// defaults experiment, validated before anything opens.
	var defaults musa.Experiment
	if err := defaults.SetReplayFlags(*replayRanks, *noReplay, *network); err != nil {
		log.Fatal(err)
	}

	// A ring makes this replica one of several equivalent front doors: it
	// proxies /simulate misses it does not own to their owner, the replica
	// of their cache group. The key-derivation contract requires identical
	// default flags on every replica.
	var rg *musa.Ring
	if *peers != "" {
		if *self == "" {
			log.Fatal("-peers requires -self (this replica's own URL in the ring)")
		}
		rg = musa.NewRing(*self, splitList(*peers))
	}

	client, err := musa.NewClient(musa.ClientOptions{
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
		if errors.Is(err, musa.ErrStoreBusy) {
			log.Fatalf("%v\nanother process is writing %s; pass -store-readonly to serve from it anyway", err, *cacheDir)
		}
		log.Fatal(err)
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

	var handlerOpts []serve.Option
	if *pprofFlag {
		handlerOpts = append(handlerOpts, serve.WithPprof())
		log.Print("pprof enabled under /debug/pprof/")
	}
	if *accessLog {
		handlerOpts = append(handlerOpts, serve.WithAccessLog(log.New(os.Stderr, "access: ", 0)))
	}
	// Admission control defaults on for the binary (the serve library leaves
	// it off): a replica taking public traffic must shed overload with 429 +
	// Retry-After rather than queue unboundedly.
	limit := *admit
	if limit == 0 {
		limit = 4 * snap.Jobs.Max
	}
	if limit > 0 {
		handlerOpts = append(handlerOpts, serve.WithAdmission(limit, *admitQueue))
		log.Printf("admission: %d concurrent, %d queued, then 429", limit, *admitQueue)
	}
	if rg != nil {
		log.Printf("ring: self=%s members=%d", rg.Self(), rg.Len())
	}
	svc := serve.New(client)
	srv := serve.NewServer(*addr, serve.NewHandler(svc, handlerOpts...))

	// Graceful shutdown: stop accepting, drain in-flight requests (sweeps
	// checkpoint through the store, so killing them loses nothing beyond
	// the points in flight), then close the store.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		// Draining first: /healthz flips to 503 so routers stop sending
		// work and new heavy requests shed, while Shutdown lets in-flight
		// NDJSON streams run to completion.
		svc.StartDraining()
		log.Print("draining, then shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- srv.Shutdown(shutdownCtx)
	}()

	log.Printf("listening on %s", *addr)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if err := <-done; err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := client.Close(); err != nil {
		log.Printf("store close: %v", err)
	}
	log.Printf("store %s: %d measurements", *cacheDir, client.Snapshot().Store.Len)
}

// splitList parses a comma-separated flag value, dropping empty elements.
func splitList(v string) []string {
	var out []string
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}
