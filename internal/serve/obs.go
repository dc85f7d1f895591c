package serve

import (
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
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
}

// Option configures NewHandler.
type Option func(*handlerConfig)

// WithAdmission bounds the heavy endpoints (POST /simulate, /dse, /shard):
// at most limit requests execute concurrently, at most queue more wait,
// and the rest are shed with 429 + Retry-After: 1. limit <= 0 disables
// admission control (the library default; `musa serve` enables it).
func WithAdmission(limit, queue int) Option {
	return func(c *handlerConfig) { c.admitLimit, c.admitQueue = limit, queue }
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

// respWriters holds the middleware's respWriters: one per request, back in
// the pool once the handler has returned and the request is accounted.
var respWriters = sync.Pool{New: func() any { return new(respWriter) }}

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

// statusText renders a status code for the request span's "status"
// attribute: a constant for every status the handlers write, so the span
// does not allocate one per request.
func statusText(status int) string {
	switch status {
	case http.StatusOK:
		return "200"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusMethodNotAllowed:
		return "405"
	case http.StatusRequestEntityTooLarge:
		return "413"
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusBadGateway:
		return "502"
	case http.StatusServiceUnavailable:
		return "503"
	}
	return strconv.Itoa(status)
}

// routeClass is a route and a status class (status/100).
type routeClass struct {
	route string
	class int
}

// routeSeries is the request counter of one (route, status class) and the
// duration histogram of its route.
type routeSeries struct {
	requests *obs.Counter
	duration *obs.Histogram
}

// routeSeriesCache resolves each (route, status class)'s series in the
// registry once; every later request of the pair finds them in its map.
type routeSeriesCache struct {
	reg *obs.Registry
	mu  sync.Mutex
	m   map[routeClass]routeSeries
}

func (c *routeSeriesCache) of(route string, status int) routeSeries {
	k := routeClass{route, status / 100}
	c.mu.Lock()
	defer c.mu.Unlock()
	rs, ok := c.m[k]
	if !ok {
		rs = routeSeries{
			requests: c.reg.Counter("musa_http_requests_total",
				"HTTP requests served, by route and status class.",
				obs.L("route", route), obs.L("code", statusClass(status))),
			duration: c.reg.Histogram("musa_http_request_duration_seconds",
				"HTTP request duration by route.", nil, obs.L("route", route)),
		}
		c.m[k] = rs
	}
	return rs
}

// instrument wraps the routing mux with the request span, the per-route
// metrics and the access log. The request span records into cfg.rec, and
// every span nested under it finds the recorder through it. A well-formed
// X-Musa-Trace header grafts the span under the sender's; any other value
// is ignored and the request starts a trace of its own.
func instrument(next http.Handler, cfg *handlerConfig) http.Handler {
	inFlight := cfg.reg.Gauge("musa_http_requests_in_flight",
		"HTTP requests currently being served.")
	series := &routeSeriesCache{reg: cfg.reg, m: map[routeClass]routeSeries{}}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if tid, sid, ok := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader)); ok {
			ctx = obs.ContextWithRemote(ctx, tid, sid)
		}
		ctx, span := cfg.rec.StartSpan(ctx, "http.request",
			obs.A("method", r.Method), obs.A("path", r.URL.Path))
		inFlight.Add(1)
		start := time.Now()
		rw := respWriters.Get().(*respWriter)
		*rw = respWriter{ResponseWriter: w}
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
		rs := series.of(route, status)
		rs.requests.Inc()
		rs.duration.Observe(dur.Seconds())
		span.SetAttr("route", route)
		span.SetAttr("status", statusText(status))
		span.End()
		if cfg.accessLog != nil {
			cfg.accessLog.Printf("%s %s %d %dB %s route=%q trace=%s",
				r.Method, r.URL.Path, status, rw.bytes,
				dur.Round(time.Microsecond), route, span.HeaderValue())
		}
		*rw = respWriter{}
		respWriters.Put(rw)
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
