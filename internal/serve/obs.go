package serve

import (
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"musa/internal/obs"
)

// Observability skin of the HTTP API: every request is wrapped in a trace
// span (grafted under a coordinator's dispatch span when the X-Musa-Trace
// header is present), counted and timed per route, and optionally access-
// logged. The middleware reads the matched route from http.Request.Pattern
// after the mux has dispatched, so metrics label by pattern ("POST /shard"),
// never by raw path — an attacker probing random URLs cannot mint unbounded
// metric series.

// handlerConfig collects the NewHandler options.
type handlerConfig struct {
	reg        *obs.Registry
	rec        *obs.Recorder
	pprof      bool
	accessLog  *log.Logger
	admitLimit int
	admitQueue int
	retryAfter time.Duration
}

// Option configures NewHandler.
type Option func(*handlerConfig)

// WithAdmission bounds the heavy endpoints (POST /simulate, /dse, /shard):
// at most limit requests execute concurrently, at most queue more wait,
// and the rest are shed with 429 + Retry-After. limit <= 0 disables
// admission control (the library default; `musa serve` enables it).
func WithAdmission(limit, queue int) Option {
	return func(c *handlerConfig) { c.admitLimit, c.admitQueue = limit, queue }
}

// WithRetryAfter sets the Retry-After hint on shed responses (default 1s).
func WithRetryAfter(d time.Duration) Option {
	return func(c *handlerConfig) { c.retryAfter = d }
}

// WithPprof exposes the runtime profiler under GET /debug/pprof/. Off by
// default: profiles reveal memory contents, so the operator opts in
// (`musa serve -pprof`).
func WithPprof() Option { return func(c *handlerConfig) { c.pprof = true } }

// WithAccessLog logs one line per completed request to l.
func WithAccessLog(l *log.Logger) Option { return func(c *handlerConfig) { c.accessLog = l } }

// WithRegistry directs the handler's metrics (and GET /metrics) to reg
// instead of the process-wide default registry.
func WithRegistry(reg *obs.Registry) Option { return func(c *handlerConfig) { c.reg = reg } }

// WithRecorder directs the handler's spans (and GET /debug/trace) to rec
// instead of the process-wide default ring.
func WithRecorder(rec *obs.Recorder) Option { return func(c *handlerConfig) { c.rec = rec } }

// respWriter captures the status code and body size of a response, and
// forwards Flush so streaming handlers (POST /dse's NDJSON events) still
// reach the client incrementally through the middleware.
type respWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush implements http.Flusher whatever the underlying writer supports, so
// the handleDSE flusher type-assertion always finds one; flushing an
// unbuffered writer is a no-op.
func (w *respWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// statusClass folds a status code into its Prometheus label ("2xx", "4xx").
func statusClass(status int) string {
	return strconv.Itoa(status/100) + "xx"
}

// instrument wraps the routing mux with the request span, the per-route
// metrics and the access log.
func instrument(next http.Handler, cfg *handlerConfig) http.Handler {
	inFlight := cfg.reg.Gauge("musa_http_requests_in_flight",
		"HTTP requests currently being served.")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := obs.WithRecorder(r.Context(), cfg.rec)
		if tid, sid, ok := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader)); ok {
			ctx = obs.ContextWithRemote(ctx, tid, sid)
		}
		ctx, span := obs.StartSpan(ctx, "http.request",
			obs.A("method", r.Method), obs.A("path", r.URL.Path))
		inFlight.Add(1)
		start := time.Now()
		rw := &respWriter{ResponseWriter: w}
		// The mux sets r.Pattern on this request in place, so the matched
		// route is readable here once ServeHTTP returns.
		r = r.WithContext(ctx)
		next.ServeHTTP(rw, r)
		dur := time.Since(start)
		inFlight.Add(-1)
		status := rw.status
		if status == 0 {
			status = http.StatusOK
		}
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		cfg.reg.Counter("musa_http_requests_total",
			"HTTP requests served, by route and status class.",
			obs.L("route", route), obs.L("code", statusClass(status))).Inc()
		cfg.reg.Histogram("musa_http_request_duration_seconds",
			"HTTP request duration by route.", nil, obs.L("route", route)).
			Observe(dur.Seconds())
		span.SetAttr("route", route)
		span.SetAttr("status", strconv.Itoa(status))
		span.End()
		if cfg.accessLog != nil {
			cfg.accessLog.Printf("%s %s %d %dB %s route=%q trace=%s",
				r.Method, r.URL.Path, status, rw.bytes,
				dur.Round(time.Microsecond), route, span.HeaderValue())
		}
	})
}

// registerObsRoutes adds the observability endpoints to the mux.
func registerObsRoutes(mux *http.ServeMux, cfg *handlerConfig) {
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		cfg.reg.WritePrometheus(w)
	})
	// The recorded span ring: NDJSON by default, ?format=chrome for a
	// chrome://tracing / Perfetto-loadable document.
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			cfg.rec.WriteChromeTrace(w)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		cfg.rec.WriteNDJSON(w)
	})
	if cfg.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}
