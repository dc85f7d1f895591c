// Package obs is the zero-dependency observability layer of the simulation
// pipeline: hierarchical trace spans recorded into a bounded in-memory ring
// (exportable as NDJSON and Chrome trace_event JSON), and a metrics registry
// (counters, gauges, log-bucketed histograms) rendered in the Prometheus
// text exposition format. Every layer of the request path — musa.Client,
// the dse pipeline stages, the fleet coordinator and the HTTP handlers —
// instruments itself through this package, so one -trace-out file or one
// GET /metrics scrape sees the whole system.
//
// Spans propagate through context.Context: StartSpan parents a new span
// under the context's current span (or starts a new trace), and
// ContextWithRemote grafts a parent received from another process (the
// X-Musa-Trace header) so worker-side spans nest under the coordinator's
// dispatch. All types are safe for concurrent use; a nil *Span is a valid
// no-op receiver, so instrumented code never branches on "is tracing on".
package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
)

// Attr is one key=value span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A builds a string attribute.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// AInt builds an integer attribute.
func AInt(key string, value int) Attr {
	return Attr{Key: key, Value: fmt.Sprintf("%d", value)}
}

// newID returns a 16-hex-digit identifier. Trace and span IDs only need to
// be unique within a trace ring, not unguessable, so the shared PRNG is
// plenty (and never zero, which marks "no parent").
func newID() string {
	for {
		if v := rand.Uint64(); v != 0 {
			var b [16]byte
			for i := len(b) - 1; i >= 0; i, v = i-1, v>>4 {
				b[i] = "0123456789abcdef"[v&0xf]
			}
			return string(b[:])
		}
	}
}

type ctxKey int

const (
	spanKey ctxKey = iota
	recorderKey
)

// WithRecorder returns a context whose spans record into r instead of the
// package default ring. A nil r disables recording for the subtree.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey, r)
}

// recorderFrom resolves the recorder for a new span: the context's, falling
// back to the package default. WithRecorder(ctx, nil) yields nil (disabled).
func recorderFrom(ctx context.Context) *Recorder {
	if v, ok := ctx.Value(recorderKey).(*Recorder); ok {
		return v
	}
	return Default()
}

// SpanFrom returns the context's current span (nil outside any span).
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// TraceHeader is the HTTP header carrying trace propagation between a fleet
// coordinator and its workers: "<trace-id>:<parent-span-id>".
const TraceHeader = "X-Musa-Trace"

// ContextWithRemote grafts a remote parent into the context: the next
// StartSpan call parents under (traceID, spanID) as if the remote span were
// local. Empty IDs return ctx unchanged.
func ContextWithRemote(ctx context.Context, traceID, spanID string) context.Context {
	if traceID == "" || spanID == "" {
		return ctx
	}
	return context.WithValue(ctx, spanKey, &Span{TraceID: traceID, SpanID: spanID, remote: true})
}

// ParseTraceHeader splits an X-Musa-Trace value into its trace and parent
// span IDs.
func ParseTraceHeader(v string) (traceID, spanID string, ok bool) {
	traceID, spanID, found := strings.Cut(v, ":")
	if !found || traceID == "" || spanID == "" {
		return "", "", false
	}
	return traceID, spanID, true
}

// HeaderValue renders the span's propagation header value
// ("<trace-id>:<span-id>"); empty for a nil span.
func (s *Span) HeaderValue() string {
	if s == nil {
		return ""
	}
	return s.TraceID + ":" + s.SpanID
}
