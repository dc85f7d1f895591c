package ring

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"musa/internal/obs"
)

// This file is the one way a request moves to another ring member. Every
// process that sends into a ring — a replica proxying a /simulate miss to
// its owner, the fleet coordinator probing a worker or posting a shard —
// sends through a Forwarder, so which member gets a key, what counts as
// that member failing and when it is tried again are decided here and
// nowhere else.

// HopHeader marks a request already routed once by a ring participant. A
// replica receiving it executes locally whatever its ring says: during a
// membership change two replicas may briefly disagree about ownership, and
// one hop of imprecise placement beats a proxy loop.
const HopHeader = "X-Musa-Ring-Hop"

// Request is what a Forwarder sends to a member.
type Request struct {
	Method string
	// Path is the path and query appended to the member's base URL.
	Path string
	// Header supplies Content-Type, Accept and — when ctx carries no span of
	// its own — the trace header; nothing else is copied.
	Header http.Header
	Body   []byte
	// Timeout bounds one attempt, response body included (0 = only ctx). A
	// member that runs into it has failed; a ctx that ends has not.
	Timeout time.Duration
}

// Forwarder sends requests to ring members and keeps the ring's health
// marks: a transport failure — refused, reset, timed out — marks the member
// Down for DownCooldown (Ring.MarkDown); the caller's own context ending
// marks nobody.
type Forwarder struct {
	Ring *Ring
	HTTP *http.Client
}

// candidates is the placement order for key: the health-ranked order
// without this process and without members marked Down — or with them when
// nobody else is left, since a local mark may simply be stale.
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
// does), for callers that hold work for a member instead of sending it at
// once: the fleet coordinator places its shards with it.
func (r *Ring) Pick(key string, ok func(member string) bool) string {
	for _, m := range r.candidates(key) {
		if ok(m) {
			return m
		}
	}
	return ""
}

// Send makes one attempt against one named member: hop and trace headers
// set, a transport failure turned into a Down mark. handle reads the
// response, whatever its status; its body is closed when handle returns.
func (f *Forwarder) Send(ctx context.Context, member string, req Request, handle func(resp *http.Response)) error {
	actx, cancel := ctx, context.CancelFunc(func() {})
	if req.Timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, req.Timeout)
	}
	defer cancel()
	hr, err := http.NewRequestWithContext(actx, req.Method, member+req.Path, bytes.NewReader(req.Body))
	if err != nil {
		return err
	}
	for _, h := range [...]string{"Content-Type", "Accept", obs.TraceHeader} {
		if v := req.Header.Get(h); v != "" {
			hr.Header.Set(h, v)
		}
	}
	// The hop that is leaving parents the receiver's span tree; without a
	// span in ctx, an inbound trace header passes through above.
	if hv := obs.SpanFrom(ctx).HeaderValue(); hv != "" {
		hr.Header.Set(obs.TraceHeader, hv)
	}
	hr.Header.Set(HopHeader, "1")
	resp, err := f.HTTP.Do(hr)
	if err != nil {
		if ctx.Err() == nil {
			// The caller is still there, so the failure is the member's.
			f.Ring.MarkDown(member)
		}
		return err
	}
	defer resp.Body.Close()
	handle(resp)
	return nil
}

// relayBufs holds the copy buffers of Relay: a proxied reply is relayed on
// most requests of a ring, and a fresh 32 KiB buffer for each would be the
// largest allocation on that path.
var relayBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// Relay copies a member's response to w: status, the headers a caller acts
// on (Content-Type, Retry-After, Location) and the body.
func Relay(w http.ResponseWriter, resp *http.Response) {
	for _, h := range [...]string{"Content-Type", "Retry-After", "Location"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	buf := relayBufs.Get().(*[32 << 10]byte)
	defer relayBufs.Put(buf)
	io.CopyBuffer(w, resp.Body, buf[:]) // an error is the caller hanging up: the reply is committed
}
