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
// Routing:
//
//	POST /simulate       by the experiment's node store key
//	POST /dse, /shard    by the hash of the canonical sweep encoding
//	GET|PUT /artifact/{key}  by the artifact key itself
//	everything else      to the healthiest replica (ops endpoints, figures)
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
	"musa/internal/obs"
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

	rt := &router{rg: rg, keyer: keyer, httpc: &http.Client{}}
	go rt.probe(*probeEvery)

	srv := serve.NewServer(*addr, rt)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
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

type router struct {
	rg    *musa.Ring
	keyer *musa.Client
	httpc *http.Client
}

// probe polls every replica's /healthz on a fixed period and feeds the
// result into the ring's health states, which reorder routing preferences
// without changing key ownership.
func (rt *router) probe(every time.Duration) {
	for {
		for _, m := range rt.rg.Members() {
			rt.rg.SetState(m.URL, rt.probeOne(m.URL))
		}
		time.Sleep(every)
	}
}

func (rt *router) probeOne(base string) musa.RingState {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return musa.RingDown
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return musa.RingDown
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	json.NewDecoder(io.LimitReader(resp.Body, 1<<12)).Decode(&body)
	if st, err := ring.ParseState(body.Status); err == nil {
		return st
	}
	if resp.StatusCode == http.StatusOK {
		return musa.RingOk
	}
	return musa.RingDown
}

// maxRoutedBody bounds a request body the router must buffer to derive its
// route key. Simulation requests are small JSON documents; artifact PUTs
// stream through without buffering.
const maxRoutedBody = 1 << 20

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := ""
	var body []byte
	switch {
	case r.Method == http.MethodPost &&
		(r.URL.Path == "/simulate" || r.URL.Path == "/dse" || r.URL.Path == "/shard"):
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, maxRoutedBody))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var e musa.Experiment
		if err := json.Unmarshal(body, &e); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if e.Kind == "" {
			if r.URL.Path == "/simulate" {
				e.Kind = musa.KindNode
			} else {
				e.Kind = musa.KindSweep
			}
		}
		if k, err := rt.keyer.RouteKey(e); err == nil {
			key = k
		}
		// A key derivation failure routes by health alone; the replica
		// produces the authoritative validation error.
	case strings.HasPrefix(r.URL.Path, "/artifact/"):
		key = strings.TrimPrefix(r.URL.Path, "/artifact/")
	}
	rt.forward(w, r, key, body)
}

// forward sends the request to the ring's preferred replicas in order,
// skipping members marked down and advancing past transport failures. The
// first replica that answers — whatever its status code — owns the reply.
func (rt *router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	tried := 0
	for _, base := range rt.rg.Order(key) {
		if rt.rg.StateOf(base) == musa.RingDown {
			continue
		}
		tried++
		if rt.forwardTo(w, r, base, body) {
			return
		}
		rt.rg.SetState(base, musa.RingDown)
	}
	if tried == 0 {
		// Every replica is marked down: try them all anyway rather than
		// refusing — the prober may just be behind.
		for _, base := range rt.rg.Order(key) {
			if rt.forwardTo(w, r, base, body) {
				return
			}
		}
	}
	http.Error(w, "no replica reachable", http.StatusBadGateway)
}

// forwardTo proxies one request to one replica, streaming the response
// through with per-chunk flushes so NDJSON progress events reach the
// client incrementally. Returns false only when no response was started —
// a transport failure before any bytes were written — so the caller can
// try the next replica.
func (rt *router) forwardTo(w http.ResponseWriter, r *http.Request, base string, body []byte) bool {
	var reqBody io.Reader = r.Body
	if body != nil {
		reqBody = strings.NewReader(string(body))
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), reqBody)
	if err != nil {
		return false
	}
	for _, h := range []string{"Content-Type", "Accept", obs.TraceHeader} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	// The router is the placement decision: the replica executes locally
	// instead of re-routing, even if its membership view disagrees.
	req.Header.Set(serve.RingHopHeader, "1")
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", "Location"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return true // client hung up; the reply is committed
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return true
		}
	}
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
