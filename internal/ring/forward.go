package ring

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"musa/internal/obs"
)

// This file is the one way a request moves to another ring member. Every
// process that routes into a ring — a replica proxying a /simulate it does
// not own, the L7 router, the fleet coordinator pushing an artifact or
// posting a shard — sends through a Forwarder, so which member gets a key,
// what counts as that member failing and when it is tried again are decided
// here and nowhere else.

// HopHeader marks a request already routed once by a ring participant. A
// replica receiving it executes locally whatever its ring says: during a
// membership change two replicas may briefly disagree about ownership, and
// one hop of imprecise placement beats a proxy loop.
const HopHeader = "X-Musa-Ring-Hop"

// ErrUnreachable reports that no candidate produced a response the caller
// accepted.
var ErrUnreachable = errors.New("ring: no member reachable")

// Request is what a Forwarder sends to a member.
type Request struct {
	Method string
	// Path is the path and query appended to the member's base URL.
	Path string
	// Header supplies Content-Type, Accept and — when ctx carries no span of
	// its own — the trace header; nothing else is copied.
	Header http.Header
	// Body is a buffered body, sent again on every attempt.
	Body []byte
	// Stream is an unbuffered body. The first attempt consumes it, so a walk
	// never advances past that attempt: a half-read body is not replayed.
	Stream io.Reader
	// Timeout bounds one attempt, response body included (0 = only ctx). A
	// member that runs into it has failed; a ctx that ends has not.
	Timeout time.Duration
}

// Forwarder sends requests to ring members and keeps the ring's health
// marks: a transport failure — refused, reset, timed out — marks the member
// Down for DownCooldown (Ring.MarkDown); the caller's own context ending
// marks nobody. The ring may have no members: Send still works and marks
// are ignored, which is how the fleet reaches workers outside any ring.
type Forwarder struct {
	Ring *Ring
	HTTP *http.Client
}

// candidates is the walk order for key: the health-ranked order without
// this process and without members marked Down — or with them when nobody
// else is left, since a local mark may simply be stale.
func (r *Ring) candidates(key string) []string {
	rs := r.rank(key)
	out := make([]string, 0, len(rs))
	for _, m := range rs {
		if m.url != r.self && m.state != Down {
			out = append(out, m.url)
		}
	}
	if len(out) > 0 {
		return out
	}
	for _, m := range rs {
		if m.url != r.self {
			out = append(out, m.url)
		}
	}
	return out
}

// Pick returns the first candidate for key that ok accepts ("" when none
// does): placement by the same order Forward walks, for callers that hold
// work for a member instead of sending it at once.
func (r *Ring) Pick(key string, ok func(member string) bool) string {
	for _, m := range r.candidates(key) {
		if ok(m) {
			return m
		}
	}
	return ""
}

// Forward sends req to the candidates for key, in order, until handle
// accepts a response: handle sees every response obtained, whatever its
// status, and returns false to have the next candidate tried (the member
// answered, so it is not marked). At most limit members are attempted
// (0 = all). The response body is closed when handle returns. Forward
// returns nil once handle accepted, ctx.Err() as soon as ctx ends, and
// ErrUnreachable when the candidates ran out.
func (f *Forwarder) Forward(ctx context.Context, key string, limit int, req Request,
	handle func(member string, resp *http.Response) bool) error {
	for i, m := range f.Ring.candidates(key) {
		if limit > 0 && i == limit {
			break
		}
		resp, cancel, err := f.attempt(ctx, m, req)
		if err == nil {
			done := handle(m, resp)
			resp.Body.Close()
			cancel()
			if done {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if req.Stream != nil {
			break
		}
	}
	return ErrUnreachable
}

// Send makes one attempt against one named member, with Forward's headers
// and failure marking. handle reads the response; its body is closed when
// handle returns.
func (f *Forwarder) Send(ctx context.Context, member string, req Request, handle func(resp *http.Response)) error {
	resp, cancel, err := f.attempt(ctx, member, req)
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	handle(resp)
	return nil
}

// attempt is the one place a request leaves for a member: hop and trace
// headers set, transport failure turned into a Down mark. cancel releases
// the attempt's deadline and must be called once the response is consumed.
func (f *Forwarder) attempt(ctx context.Context, member string, req Request) (*http.Response, context.CancelFunc, error) {
	actx, cancel := ctx, context.CancelFunc(func() {})
	if req.Timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, req.Timeout)
	}
	body := req.Stream
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	hr, err := http.NewRequestWithContext(actx, req.Method, member+req.Path, body)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	for _, h := range [...]string{"Content-Type", "Accept", obs.TraceHeader} {
		if v := req.Header.Get(h); v != "" {
			hr.Header.Set(h, v)
		}
	}
	// The hop that is leaving parents the receiver's span tree; an inbound
	// trace header (a router has no span of its own) passes through above.
	if hv := obs.SpanFrom(ctx).HeaderValue(); hv != "" {
		hr.Header.Set(obs.TraceHeader, hv)
	}
	hr.Header.Set(HopHeader, "1")
	resp, err := f.HTTP.Do(hr)
	if err != nil {
		cancel()
		if ctx.Err() == nil {
			// The caller is still there, so the failure is the member's.
			f.Ring.MarkDown(member)
		}
		return nil, nil, err
	}
	return resp, cancel, nil
}

// relayBufs holds the copy buffers of Relay: a proxied reply is relayed on
// most requests of a ring, and a fresh 32 KiB buffer for each would be the
// largest allocation on that path.
var relayBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// Relay copies a member's response to w: status, the headers a caller acts
// on (Content-Type, Retry-After, Location) and the body. A body of unknown
// length is a stream — NDJSON progress events — and is flushed chunk by
// chunk so events reach the caller as the member emits them.
func Relay(w http.ResponseWriter, resp *http.Response) {
	for _, h := range [...]string{"Content-Type", "Retry-After", "Location"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	var flusher http.Flusher
	if resp.ContentLength < 0 {
		flusher, _ = w.(http.Flusher)
	}
	buf := relayBufs.Get().(*[32 << 10]byte)
	defer relayBufs.Put(buf)
	for {
		n, err := resp.Body.Read(buf[:])
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // the caller hung up; the reply is committed
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// maxRetryAfter is the longest delay ParseRetryAfter reports; the one caller
// (the fleet's dispatch loop) gives up on a worker long before it.
const maxRetryAfter = time.Hour

// ParseRetryAfter reads a Retry-After header as delay seconds, clamped to
// [0, maxRetryAfter] so that no count of seconds can wrap time.Duration into
// a negative wait; malformed, negative or absent values fall back to one
// second.
func ParseRetryAfter(v string) time.Duration {
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if (err != nil && !errors.Is(err, strconv.ErrRange)) || n < 0 {
		return time.Second
	}
	return time.Duration(min(n, int(maxRetryAfter/time.Second))) * time.Second
}
