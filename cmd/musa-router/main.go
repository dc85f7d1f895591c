// musa-router is a thin L7 front door for a ring of musa-serve replicas:
// it derives the content-addressed route key of each request and forwards
// it to the replica the rendezvous ring ranks highest, so duplicate
// requests from many clients converge on one replica's single-flight and
// store regardless of which front door they entered through. The router
// holds no store and runs no simulations — a health prober and a hash are
// its whole state, so any number of routers can run behind one DNS name.
//
// Usage:
//
//	musa-router -addr :8079 -replicas http://h1:8080,http://h2:8080,http://h3:8080
//
// The handler, and the key each route is routed by, is serve.NewRouter.
//
// Replicas that fail a probe or a forward are routed around until they
// pass again; a replica answering 503 from /healthz (draining) or
// overloaded stops receiving new work but keeps its in-flight streams.
// The route-key contract requires this router to run with the same
// default-fidelity flags (-sample, -warmup, -seed, -replay-ranks,
// -network) as every replica.
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
	"os/signal"
	"strings"
	"syscall"
	"time"

	"musa"
	"musa/internal/ring"
	"musa/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("musa-router: ")

	addr := flag.String("addr", ":8079", "listen address")
	replicas := flag.String("replicas", "", "comma-separated musa-serve replica base URLs (required)")
	sample := flag.Int64("sample", 0, "default detailed sample micro-ops — must match the replicas")
	warmup := flag.Int64("warmup", 0, "default warmup micro-ops — must match the replicas")
	seed := flag.Uint64("seed", 1, "default seed — must match the replicas")
	replayRanks := flag.String("replay-ranks", "", "default cluster-stage rank counts — must match the replicas")
	noReplay := flag.Bool("no-replay", false, "default replay disablement — must match the replicas")
	network := flag.String("network", "", "default interconnect model — must match the replicas")
	probeEvery := flag.Duration("probe-interval", 3*time.Second, "healthz probe period per replica")
	flag.Parse()

	members := splitList(*replicas)
	if len(members) == 0 {
		log.Fatal("no replicas: pass -replicas URLS")
	}

	var defaults musa.Experiment
	if err := defaults.SetReplayFlags(*replayRanks, *noReplay, *network); err != nil {
		log.Fatal(err)
	}
	// The client exists only to derive route keys with the same normalization
	// the replicas apply; it never opens a store or runs a simulation.
	rg := musa.NewRing("", members)
	keyer, err := musa.NewClient(musa.ClientOptions{
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
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go probe(ctx, rg, *probeEvery)

	srv := serve.NewServer(*addr, serve.NewRouter(keyer))
	go func() {
		<-ctx.Done()
		log.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	log.Printf("routing %d replicas on %s", rg.Len(), *addr)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
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
