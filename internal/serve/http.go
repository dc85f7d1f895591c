package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"musa"
	"musa/internal/dse"
	"musa/internal/jsonenc"
	"musa/internal/obs"
	"musa/internal/store"
)

// NewHandler returns the `musa serve` HTTP API:
//
//	GET  /apps         the five application models
//	GET  /points       the Table I design space
//	GET  /capacity     advertised MaxJobs and in-flight jobs (fleet probe)
//	POST /simulate     one node experiment (store-backed, coalesced)
//	POST /dse          sweep experiment; streams NDJSON progress then the result
//	POST /optimize     successive-halving search; streams NDJSON progress and
//	                   rung events, then the OptimizeResult
//	POST /shard        sweep subset for a fleet coordinator; plain JSON reply
//	GET  /artifact/{key}  one encoded sweep artifact from the artifact cache
//	PUT  /artifact/{key}  store an artifact (fleet coordinators push these
//	                      ahead of shards so workers reuse instead of rebuild)
//	GET  /figures/{n}  JSON figure data (1, 4-11; 4 is the rank timeline)
//	GET  /stats        client, store and artifact-cache counters, replay config
//	GET  /healthz      replica health: ok / draining / overloaded (non-ok is 503)
//	GET  /membership   the replica ring this instance routes across
//	PUT  /membership   replace the ring membership at runtime
//	GET  /metrics      Prometheus text exposition of the process registry
//	GET  /debug/trace  recorded spans (NDJSON; ?format=chrome for tracing UIs)
//	GET  /debug/pprof/ runtime profiles (only with WithPprof)
//
// POST bodies are musa.Experiment wire encodings; the handlers force the
// endpoint's Kind and reject everything a Normalize pass rejects with 400.
// Every request runs under a trace span and is counted and timed per route;
// see obs.go for the middleware and the Option list.
func NewHandler(svc *Service, opts ...Option) http.Handler {
	cfg := &handlerConfig{reg: obs.DefaultRegistry(), rec: obs.Default()}
	for _, o := range opts {
		o(cfg)
	}
	// Bridge the client's own counters (requests, store and artifact cache,
	// job pool) into the scrape registry.
	svc.Client().RegisterMetrics(cfg.reg)
	// Serve-tier state lives on the Service so the signal handler can reach
	// StartDraining through it.
	svc.reg = cfg.reg
	svc.adm = newAdmission(cfg.admitLimit, cfg.admitQueue, cfg.retryAfter)
	cfg.reg.GaugeFunc("musa_serve_health_state",
		"Replica health (0 ok, 1 overloaded, 2 draining, 3 down).",
		func() float64 { return float64(svc.healthState()) })
	mux := http.NewServeMux()
	mux.HandleFunc("GET /apps", func(w http.ResponseWriter, r *http.Request) {
		var names []string
		for _, a := range musa.Applications() {
			names = append(names, a.Name)
		}
		writeJSON(w, http.StatusOK, map[string]any{"apps": names})
	})
	mux.HandleFunc("GET /points", func(w http.ResponseWriter, r *http.Request) {
		type pt struct {
			Index int    `json:"index"`
			Label string `json:"label"`
			musa.Arch
		}
		pts := make([]pt, musa.PointCount())
		for i := range pts {
			a, err := musa.PointArch(i)
			if err != nil {
				httpError(w, http.StatusInternalServerError, err)
				return
			}
			label, err := musa.PointLabel(i)
			if err != nil {
				httpError(w, http.StatusInternalServerError, err)
				return
			}
			pts[i] = pt{Index: i, Label: label, Arch: a}
		}
		writeJSON(w, http.StatusOK, map[string]any{"count": len(pts), "points": pts})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		c := svc.Client()
		snap := c.Snapshot()
		ringInfo := map[string]any{"enabled": false}
		if rg := c.Ring(); rg != nil {
			ringInfo = map[string]any{
				"enabled": true,
				"self":    rg.Self(),
				"members": rg.Members(),
			}
		}
		admInfo := map[string]any{"enabled": svc.adm != nil}
		if svc.adm != nil {
			admInfo["limit"] = cap(svc.adm.sem)
			admInfo["queue"] = svc.adm.queueDepth
		}
		// The wire shape predates Client.Snapshot and is kept stable: the
		// fleet migration tooling reads .store.engine.* and .stored.
		writeJSON(w, http.StatusOK, map[string]any{
			"service": snap.Stats,
			"stored":  snap.Store.Len,
			"store": map[string]any{
				"readOnly":        snap.Store.ReadOnly,
				"engine":          snap.Store.Engine,
				"memtableBytes":   snap.Store.MemtableBytes,
				"blockCacheBytes": snap.Store.BlockCacheBytes,
			},
			"ring":      ringInfo,
			"admission": admInfo,
			"artifacts": map[string]any{
				"enabled": snap.Artifacts.Enabled,
				"cache":   snap.Artifacts.Stats,
			},
			"replay": map[string]any{
				"disabled": snap.Replay.Disabled,
				"ranks":    snap.Replay.Ranks,
				"network":  snap.Replay.Network,
			},
			"schemaVersion":         store.SchemaVersion,
			"artifactSchemaVersion": dse.ArtifactSchemaVersion,
		})
	})
	mux.HandleFunc("GET /capacity", func(w http.ResponseWriter, r *http.Request) {
		snap := svc.Client().Snapshot()
		writeJSON(w, http.StatusOK, map[string]any{
			"maxJobs":  snap.Jobs.Max,
			"inFlight": snap.Jobs.InFlight,
			"stored":   snap.Store.Len,
		})
	})
	mux.HandleFunc("POST /simulate", svc.gate("simulate", svc.handleSimulate))
	mux.HandleFunc("POST /dse", svc.gate("dse", svc.handleDSE))
	mux.HandleFunc("POST /optimize", svc.gate("optimize", svc.handleOptimize))
	mux.HandleFunc("POST /shard", svc.gate("shard", svc.handleShard))
	mux.HandleFunc("GET /healthz", svc.handleHealthz)
	mux.HandleFunc("GET /membership", svc.handleMembershipGet)
	mux.HandleFunc("PUT /membership", svc.handleMembershipPut)
	mux.HandleFunc("GET /artifact/{key}", svc.handleArtifactGet)
	mux.HandleFunc("PUT /artifact/{key}", svc.handleArtifactPut)
	mux.HandleFunc("GET /figures/{n}", svc.handleFigure)
	registerObsRoutes(mux, cfg)
	return instrument(mux, cfg)
}

// experimentStatus maps an execution error onto its HTTP status: every
// validation failure wraps musa.ErrExperiment and is the client's fault.
func experimentStatus(err error) int {
	if errors.Is(err, musa.ErrExperiment) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// maxExperimentBody bounds a POSTed experiment. Requests are small JSON
// documents (a full PointIndices list is under 5 KiB); the bound is what
// keeps a hostile or broken client from making a replica buffer gigabytes.
const maxExperimentBody = 1 << 20

// readBounded reads a request body of at most maxExperimentBody bytes,
// answering 413 for a longer one and 400 for a broken one itself.
func readBounded(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxExperimentBody))
	if err != nil {
		status := http.StatusBadRequest
		if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, err)
		return nil, false
	}
	return body, true
}

// request is the wire form of a POST body: the experiment, the
// stream-control fields that ride beside it on /dse and /optimize, and the
// retired nested "replay" member, decoded only so that it can be refused.
type request struct {
	musa.Experiment
	ProgressEvery int `json:"progressEvery"`
	// Summary suppresses per-measurement output in /dse's final event.
	Summary bool            `json:"summary"`
	Replay  json.RawMessage `json:"replay"`
}

// decodeRequest decodes the body an endpoint was POSTed and forces the
// endpoint's kind onto the experiment. A "replay" member is refused, not
// dropped: ignoring {"replay":{"disable":true}} would run the replay the
// caller turned off.
func decodeRequest(body []byte, path string, kind musa.Kind) (request, error) {
	var req request
	if err := json.Unmarshal(body, &req); err != nil {
		return req, err
	}
	if req.Replay != nil {
		return req, fmt.Errorf("%w: the \"replay\" member is retired; spell it replayRanks / noReplay / network", musa.ErrExperiment)
	}
	if req.Kind != "" && req.Kind != kind {
		return req, fmt.Errorf("%w: %s runs %q experiments, got %q", musa.ErrBadKind, path, kind, req.Kind)
	}
	req.Kind = kind
	return req, nil
}

// readExperiment reads and decodes the request an endpoint was POSTed. The
// raw body comes back too: /simulate forwards it byte for byte. On ok false
// the error reply has been written.
func readExperiment(w http.ResponseWriter, r *http.Request, kind musa.Kind) (req request, body []byte, ok bool) {
	if body, ok = readBounded(w, r); !ok {
		return req, nil, false
	}
	req, err := decodeRequest(body, r.URL.Path, kind)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return req, nil, false
	}
	return req, body, true
}

func (s *Service) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, body, ok := readExperiment(w, r, musa.KindNode)
	if !ok || s.routeSimulate(w, r, req.Experiment, body) {
		return
	}
	start := time.Now()
	res, err := s.c.Run(r.Context(), req.Experiment)
	if err != nil {
		httpError(w, experimentStatus(err), err)
		return
	}
	writeSimulateReply(w, res, float64(time.Since(start).Microseconds())/1e3)
}

// replyPool holds the buffers POST /simulate replies are assembled in.
var replyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeSimulateReply writes the POST /simulate reply of every outcome — store
// hit, miss, coalesced follower. The bytes are what writeJSON renders from
// the map {app, cached, elapsedMs, label, measurement} (keys sorted, two-space
// indent; TestSimulateReplyMatchesReference holds them to it), but the
// five-member envelope is appended and the measurement copied in: a hit's
// measurement bytes come from the store front and are the same for every hit
// of a key, so nothing is reflected or re-indented per request.
func writeSimulateReply(w http.ResponseWriter, res *musa.Result, elapsedMs float64) {
	measurement, err := res.MeasurementJSON()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	m := res.Measurement
	buf := replyPool.Get().(*[]byte)
	b := jsonenc.AppendString(append((*buf)[:0], "{\n  \"app\": "...), m.App)
	b = strconv.AppendBool(append(b, ",\n  \"cached\": "...), res.Cached)
	b = jsonenc.AppendFloat(append(b, ",\n  \"elapsedMs\": "...), elapsedMs)
	b = jsonenc.AppendString(append(b, ",\n  \"label\": "...), m.Arch.Label())
	b = append(append(b, ",\n  \"measurement\": "...), measurement...)
	b = append(b, "\n}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	*buf = b
	replyPool.Put(buf)
}

// ndjsonStream commits w to a 200 NDJSON reply and returns its emit
// function: one flushed line per event. A failed encode (the client hung
// up) or a canceled request context stops the stream: the ctx already
// cancels the run behind it, and emitting into a dead pipe would just burn
// encoder work until that finishes.
func ndjsonStream(w http.ResponseWriter, r *http.Request) (emit func(v any)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	dead := false
	return func(v any) {
		if dead {
			return
		}
		if r.Context().Err() != nil || enc.Encode(v) != nil {
			dead = true
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// stream runs an NDJSON route: cumulative progress events while the
// experiment runs, one "rung" event per completed optimize ladder level, then
// the "result" event built from final's members, or an "error" event. The
// request is validated before the 200 commits the stream: a malformed one
// must fail with a plain 400, not a mid-stream error event.
func (s *Service) stream(w http.ResponseWriter, r *http.Request, kind musa.Kind, final func(req request, res *musa.Result) map[string]any) {
	req, _, ok := readExperiment(w, r, kind)
	if !ok {
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	every := req.ProgressEvery
	if every <= 0 {
		every = 50
	}

	emit := ndjsonStream(w, r)

	start := time.Now()
	var done, total, cached int
	res, err := s.c.RunStream(r.Context(), req.Experiment, musa.Observer{
		Progress: func(d, t, c int) {
			done, total, cached = d, t, c
			if d%every == 0 || d == t {
				emit(map[string]any{"type": "progress", "done": d, "total": t, "cached": c})
			}
		},
		Rung: func(rs musa.RungSummary) {
			emit(map[string]any{"type": "rung", "rung": rs})
		},
	})
	if err != nil {
		emit(map[string]any{"type": "error", "error": err.Error(),
			"done": done, "total": total, "cached": cached})
		return
	}
	out := final(req, res)
	out["type"] = "result"
	out["cached"] = cached
	out["elapsedMs"] = float64(time.Since(start).Microseconds()) / 1e3
	emit(out)
}

func (s *Service) handleDSE(w http.ResponseWriter, r *http.Request) {
	s.stream(w, r, musa.KindSweep, func(req request, res *musa.Result) map[string]any {
		out := map[string]any{"count": len(res.Sweep.Measurements)}
		if !req.Summary {
			out["measurements"] = res.Sweep.Measurements
		}
		return out
	})
}

// handleOptimize runs a successive-halving search; its "result" event
// carries the full OptimizeResult (Pareto frontier, recommendation, cost
// accounting).
func (s *Service) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.stream(w, r, musa.KindOptimize, func(_ request, res *musa.Result) map[string]any {
		return map[string]any{"optimize": res.Optimize}
	})
}

// handleShard executes a sweep subset on behalf of a fleet coordinator and
// returns the measurements as one plain JSON document: unlike the
// NDJSON-streaming /dse endpoint, a shard reply must be all-or-nothing so
// the coordinator can either merge it or re-dispatch the whole shard.
// Execution goes through the same Client as every other endpoint, so shards
// hit this worker's store and coalesce with its in-flight work.
func (s *Service) handleShard(w http.ResponseWriter, r *http.Request) {
	req, _, ok := readExperiment(w, r, musa.KindSweep)
	if !ok {
		return
	}
	start := time.Now()
	var cached int
	res, err := s.c.RunStream(r.Context(), req.Experiment, musa.Observer{
		Progress: func(d, t, c int) { cached = c },
	})
	if err != nil {
		httpError(w, experimentStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":        len(res.Sweep.Measurements),
		"cached":       cached,
		"elapsedMs":    float64(time.Since(start).Microseconds()) / 1e3,
		"measurements": res.Sweep.Measurements,
	})
}

// NewServer returns the http.Server every musa listener runs: h behind a
// header-read and an idle-connection timeout, so a peer that connects and
// never sends a request, or parks a keep-alive connection forever, cannot
// hold a goroutine and a socket. No read or write timeout is set: /dse,
// /optimize and /shard stream for as long as their sweep runs.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr: addr, Handler: h,
		ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute,
	}
}

// maxArtifactBytes bounds one PUT /artifact upload: the largest legitimate
// artifact (a default-fidelity annotation) is a few tens of MB encoded. A
// variable only so tests can exercise the oversize rejection without
// shipping a quarter-gigabyte body.
var maxArtifactBytes int64 = 256 << 20

// handleArtifactGet serves one encoded artifact byte for byte — the read
// half of the fleet's artifact exchange, also handy for warming a fresh
// worker from a long-lived one.
func (s *Service) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidArtifactKey(key) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad artifact key %q", key))
		return
	}
	blob, ok := s.c.ArtifactBlob(key)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no artifact %s", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(blob)
}

// handleArtifactPut stores a pushed artifact. The blob is validated at the
// boundary (schema version, kind, decodable payload) so a corrupt upload is
// refused with 400 instead of poisoning later sweeps; with the artifact
// cache disabled the endpoint answers 503.
func (s *Service) handleArtifactPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidArtifactKey(key) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad artifact key %q", key))
		return
	}
	if !s.c.Snapshot().Artifacts.Enabled {
		httpError(w, http.StatusServiceUnavailable, errors.New("serve: artifact cache disabled"))
		return
	}
	blob, err := io.ReadAll(io.LimitReader(r.Body, maxArtifactBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if int64(len(blob)) > maxArtifactBytes {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: artifact exceeds %d bytes", maxArtifactBytes))
		return
	}
	if err := s.c.ArtifactPut(key, blob); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleFigure(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad figure number: %w", err))
		return
	}
	valid := false
	for _, k := range musa.FigureNumbers() {
		valid = valid || k == n
	}
	if !valid {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: unknown figure %d (have 1, 4-11)", n))
		return
	}
	q := r.URL.Query()
	var appNames []string
	if v := q.Get("apps"); v != "" {
		if n == 11 {
			// The Table II figure simulates its fixed application set;
			// silently ignoring the filter would misrepresent the data.
			httpError(w, http.StatusBadRequest, errors.New("serve: figure 11 does not support an apps filter"))
			return
		}
		appNames = strings.Split(v, ",")
	}
	if n == 4 {
		s.handleRankTimeline(w, r, appNames)
		return
	}
	intParam := func(key string) (int64, error) {
		v := q.Get(key)
		if v == "" {
			return 0, nil
		}
		i, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("serve: bad %s: %w", key, err)
		}
		return i, nil
	}
	sample, err := intParam("sample")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	warmup, err := intParam("warmup")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	seed, err := intParam("seed")
	if err != nil || seed < 0 {
		if err == nil {
			err = fmt.Errorf("serve: bad seed: negative")
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}

	simOpts := musa.SimOptions{SampleInstrs: sample, WarmupInstrs: warmup, Seed: uint64(seed)}
	var d *musa.Sweep
	if n != 11 {
		// Every figure but the Table II one aggregates the sweep dataset;
		// repeat visits are store hits.
		res, err := s.c.Run(r.Context(), musa.Experiment{
			Kind: musa.KindSweep, Apps: appNames,
			Sample: sample, Warmup: warmup, Seed: uint64(seed),
		})
		if err != nil {
			httpError(w, experimentStatus(err), err)
			return
		}
		d = res.Sweep
	}
	fig, err := musa.Figure(d, n, simOpts)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fig.WriteJSON(w)
}

// handleRankTimeline serves the Fig. 4-style cluster view:
//
//	GET /figures/4?app=lulesh&ranks=64&network=mn4&seed=1
//
// The burst trace of the requested application is replayed across the
// requested rank count and rendered as a per-rank breakdown table plus a
// text Gantt chart. No sweep runs; the replay is cheap enough to compute
// per request.
func (s *Service) handleRankTimeline(w http.ResponseWriter, r *http.Request, appNames []string) {
	q := r.URL.Query()
	appName := q.Get("app")
	if appName == "" && len(appNames) > 0 {
		appName = appNames[0]
	}
	if appName == "" {
		appName = "lulesh" // the paper's Fig. 4 subject
	}
	ranks := 64
	if v := q.Get("ranks"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad ranks %q", v))
			return
		}
		ranks = n
	}
	networkName := q.Get("network")
	if networkName == "" {
		networkName = "mn4"
	}
	network, err := musa.NetworkByName(networkName)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var seed uint64
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad seed: %w", err))
			return
		}
		seed = n
	}
	fig, err := musa.RankTimeline(appName, ranks, network, musa.SimOptions{Seed: seed})
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fig.WriteJSON(w)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorLog receives the full text of every 5xx error; swap it out in tests
// with SetErrorLog.
var errorLog = log.New(os.Stderr, "serve: ", log.LstdFlags)

// SetErrorLog redirects server-side error logging (nil discards it).
func SetErrorLog(l *log.Logger) {
	if l == nil {
		l = log.New(io.Discard, "", 0)
	}
	errorLog = l
}

// httpError writes the error reply. Client faults (4xx) echo the error text
// — those messages are validation feedback meant for the caller. Internal
// errors (5xx) are logged in full server-side and answered with the bare
// status text, so internals (paths, configuration, wrapped error chains)
// never leak onto the wire.
func httpError(w http.ResponseWriter, status int, err error) {
	msg := err.Error()
	if status >= 500 {
		errorLog.Printf("%d %s: %v", status, http.StatusText(status), err)
		msg = http.StatusText(status)
	}
	writeJSON(w, status, map[string]string{"error": msg})
}
