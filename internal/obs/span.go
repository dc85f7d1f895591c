package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Span is one timed operation in a trace tree. Exported fields are set by
// StartSpan and frozen by End; SetAttr may add annotations in between (from
// the goroutine that started the span). The zero Dur of a snapshot means
// the span was still open when the ring was read.
type Span struct {
	TraceID string `json:"traceId"`
	SpanID  string `json:"spanId"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	// Start is the wall-clock start; Dur the measured duration.
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"durNs"`
	Attrs []Attr        `json:"attrs,omitempty"`

	rec    *Recorder
	remote bool // context graft of a parent owned by another process
}

// StartSpan opens a span named name under the context's current span (a new
// trace root when there is none) and returns the child context carrying it.
// Recording goes to the context's WithRecorder recorder, else the parent
// span's, else the package ring; with recording disabled it returns (ctx,
// nil), and every method of a nil *Span is a no-op, so call sites never
// branch.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	return recorderFrom(ctx, parent).start(ctx, parent, name, attrs)
}

// StartLeaf opens a span like StartSpan for an operation nothing nests
// under: it returns no context, so it allocates no context value.
func StartLeaf(ctx context.Context, name string, attrs ...Attr) *Span {
	parent := SpanFrom(ctx)
	return recorderFrom(ctx, parent).open(parent, name, attrs)
}

// StartSpan opens a span like the package StartSpan but records it into r,
// whatever recorder the context resolves; the spans nested under it record
// into r too unless the context carries a WithRecorder value. A nil r
// records nothing and returns (ctx, nil).
func (r *Recorder) StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	return r.start(ctx, SpanFrom(ctx), name, attrs)
}

// start opens a span recording into r under parent (nil for a new trace)
// and returns the context carrying it.
func (r *Recorder) start(ctx context.Context, parent *Span, name string, attrs []Attr) (context.Context, *Span) {
	s := r.open(parent, name, attrs)
	if s == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey, s), s
}

// open opens a span recording into r under parent (nil for a new trace).
// The attrs are copied into a slice with room for two SetAttr calls, so the
// caller's variadic slice stays on its stack and the usual annotations
// after the fact (a route, a status, an outcome) do not grow it.
func (r *Recorder) open(parent *Span, name string, attrs []Attr) *Span {
	if r == nil {
		return nil
	}
	s := &Span{Name: name, Start: time.Now(), rec: r}
	if len(attrs) > 0 {
		s.Attrs = append(make([]Attr, 0, len(attrs)+2), attrs...)
	}
	if parent != nil {
		s.TraceID, s.Parent, s.SpanID = parent.TraceID, parent.SpanID, newID()
	} else {
		s.TraceID, s.SpanID = newRootIDs()
	}
	return s
}

// SetAttr appends a key=value annotation.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// End freezes the span's duration and records it into the ring. Safe to
// call on nil; calling twice records twice (don't).
func (s *Span) End() {
	if s == nil || s.remote {
		return
	}
	s.Dur = time.Since(s.Start)
	if s.rec != nil {
		s.rec.record(*s)
	}
}

// Recorder is a bounded in-memory ring of completed spans: recording is one
// mutex-guarded slot write, and when the ring wraps the oldest spans are
// dropped (roots End last, so the tree's top survives a wrap).
type Recorder struct {
	mu      sync.Mutex
	buf     []Span
	next    int
	wrapped bool
	dropped int64
}

// DefaultRingSpans is the capacity of the package-default span ring: large
// enough to hold a reduced sweep's full span tree, small enough that the
// always-on ring stays a few MB.
const DefaultRingSpans = 8192

// NewRecorder returns a ring holding the last capacity completed spans
// (capacity <= 0 selects DefaultRingSpans).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingSpans
	}
	return &Recorder{buf: make([]Span, 0, capacity)}
}

var (
	defaultRec     *Recorder
	defaultRecOnce sync.Once
)

// Default returns the package-default recorder backing StartSpan when the
// context does not carry its own.
func Default() *Recorder {
	defaultRecOnce.Do(func() { defaultRec = NewRecorder(DefaultRingSpans) })
	return defaultRec
}

func (r *Recorder) record(s Span) {
	s.rec = nil // snapshots must not retain the ring
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
		return
	}
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	r.wrapped = true
	r.dropped++
}

// Spans returns the recorded spans, oldest first.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.buf))
	if r.wrapped {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Reset discards every recorded span.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = r.buf[:0]
	r.next = 0
	r.wrapped = false
	r.dropped = 0
}

// WriteNDJSON writes one JSON object per recorded span, oldest first — the
// GET /debug/trace dump format.
func (r *Recorder) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(spanWire(s)); err != nil {
			return err
		}
	}
	return nil
}

// spanWire flattens a span for NDJSON: absolute nanosecond timestamps so
// dumps from different processes line up.
func spanWire(s Span) map[string]any {
	m := map[string]any{
		"traceId":     s.TraceID,
		"spanId":      s.SpanID,
		"name":        s.Name,
		"startUnixNs": s.Start.UnixNano(),
		"durNs":       s.Dur.Nanoseconds(),
	}
	if s.Parent != "" {
		m["parent"] = s.Parent
	}
	if len(s.Attrs) > 0 {
		attrs := make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			attrs[a.Key] = a.Value
		}
		m["attrs"] = attrs
	}
	return m
}

// WriteChromeTrace writes the ring in the Chrome trace_event JSON format:
// load the file in chrome://tracing (or https://ui.perfetto.dev) to see the
// span tree on a timeline. Each trace gets its own thread lane, so
// concurrent sweep points render side by side.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
	// Lane assignment: one tid per trace, in first-seen order. Within a
	// lane, Chrome nests complete events by time containment, which matches
	// the parent relation because children start after and end before their
	// parents.
	lanes := map[string]int{}
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`  // microseconds
		Dur  float64           `json:"dur"` // microseconds
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid, ok := lanes[s.TraceID]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.TraceID] = tid
		}
		var args map[string]string
		if len(s.Attrs) > 0 {
			args = make(map[string]string, len(s.Attrs)+1)
			for _, a := range s.Attrs {
				args[a.Key] = a.Value
			}
		}
		if args == nil {
			args = map[string]string{}
		}
		args["spanId"] = s.SpanID
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		events = append(events, event{
			Name: s.Name, Cat: "musa", Ph: "X",
			TS:  float64(s.Start.UnixNano()) / 1e3,
			Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			PID: 1, TID: tid, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}

// WriteChromeTraceFile dumps the ring as Chrome trace_event JSON to path —
// the -trace-out flag of the cmd binaries.
func (r *Recorder) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: write trace %s: %w", path, err)
	}
	return f.Close()
}
