package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"

	"musa"
	"musa/internal/obs"
	"musa/internal/ring"
)

// Ring face of one serve replica: deterministic /simulate ownership of
// misses (non-owners relay to the owner through the ring forwarder, so
// duplicate requests arriving at any replica coalesce on one machine's
// single-flight, while a key this replica's store holds is answered here),
// runtime membership updates over PUT /membership, a GET /healthz state
// machine (ok / overloaded / draining) for load balancers, and load
// shedding through a bounded admission queue that answers 429 +
// Retry-After instead of letting an overload grow an unbounded queue.

// admitResult is the outcome of one admission attempt.
type admitResult int

const (
	admitted admitResult = iota
	admitShed
	admitCanceled
)

// admission is the bounded front door of the heavy endpoints: at most
// `limit` requests execute concurrently, at most `queue` more wait, and
// everything beyond that is shed immediately with 429 + Retry-After. The
// bound is what turns an overload into fast, retryable feedback instead
// of a memory-backed queue collapse.
type admission struct {
	sem        chan struct{}
	queueDepth int64
	waiting    atomic.Int64
}

func newAdmission(limit, queue int) *admission {
	if limit <= 0 {
		return nil
	}
	if queue < 0 {
		queue = 0
	}
	return &admission{
		sem:        make(chan struct{}, limit),
		queueDepth: int64(queue),
	}
}

// acquire takes an execution slot, waiting in the bounded queue if
// necessary. It never blocks beyond the caller's context.
func (a *admission) acquire(ctx context.Context) admitResult {
	select {
	case a.sem <- struct{}{}:
		return admitted
	default:
	}
	if a.waiting.Add(1) > a.queueDepth {
		a.waiting.Add(-1)
		return admitShed
	}
	defer a.waiting.Add(-1)
	select {
	case a.sem <- struct{}{}:
		return admitted
	case <-ctx.Done():
		return admitCanceled
	}
}

func (a *admission) release() { <-a.sem }

// saturated reports that the next unqueued request would be shed: every
// execution slot is taken and the wait queue is full. This is the
// "overloaded" healthz condition.
func (a *admission) saturated() bool {
	return len(a.sem) == cap(a.sem) && a.waiting.Load() >= a.queueDepth
}

// health is a replica's /healthz classification; its value is the
// musa_serve_health_state gauge's.
type health int

const (
	healthOk health = iota
	// healthOverloaded: every admission slot is taken and the queue is
	// full, so the next request is shed (transient).
	healthOverloaded
	// healthDraining: the replica finishes in-flight work before shutdown
	// and refuses new heavy requests (terminal).
	healthDraining
)

// String returns the /healthz "status" of the state.
func (h health) String() string {
	return [...]string{"ok", "overloaded", "draining"}[h]
}

// healthState is the replica's current healthz classification.
func (s *Service) healthState() health {
	if s.draining.Load() {
		return healthDraining
	}
	if s.adm != nil && s.adm.saturated() {
		return healthOverloaded
	}
	return healthOk
}

// StartDraining flips the replica into the draining state: /healthz
// reports it (503, so load balancers stop sending work), new
// heavy requests are refused with 503 + Retry-After, and everything
// already in flight — including streaming /dse responses — runs to
// completion under the server's graceful shutdown. Idempotent.
func (s *Service) StartDraining() { s.draining.Store(true) }

// gate wraps a heavy handler (simulate, dse, shard) with draining refusal
// and the bounded admission queue. route labels the shed counter.
func (s *Service) gate(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			s.shed(route, "draining")
			httpError(w, http.StatusServiceUnavailable, errors.New("serve: draining"))
			return
		}
		if s.adm != nil {
			switch s.adm.acquire(r.Context()) {
			case admitShed:
				w.Header().Set("Retry-After", "1")
				s.shed(route, "queue-full")
				httpError(w, http.StatusTooManyRequests,
					errors.New("serve: admission queue full, retry later"))
				return
			case admitCanceled:
				// The client gave up while queued; nothing useful to write.
				httpError(w, http.StatusServiceUnavailable, r.Context().Err())
				return
			case admitted:
				defer s.adm.release()
			}
		}
		h(w, r)
	}
}

// shed counts one refused request.
func (s *Service) shed(route, reason string) {
	if s.reg == nil {
		return
	}
	s.reg.Counter("musa_serve_shed_total",
		"Requests refused by load shedding, by route and reason.",
		obs.L("route", route), obs.L("reason", reason)).Inc()
}

// ringResult counts one /simulate ownership decision.
func (s *Service) ringResult(result string) {
	if s.reg == nil {
		return
	}
	s.reg.Counter("musa_ring_owner_requests_total",
		"Ring-routed requests by placement outcome.",
		obs.L("result", result)).Inc()
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := s.healthState()
	status := http.StatusOK
	if state != healthOk {
		// Non-200 takes the replica out of naive LB rotation; the body
		// still distinguishes draining (terminal) from overloaded
		// (transient).
		status = http.StatusServiceUnavailable
	}
	c := s.c
	jobs := c.Snapshot().Jobs
	out := map[string]any{
		"status":   state.String(),
		"inFlight": jobs.InFlight,
		"maxJobs":  jobs.Max,
	}
	if s.adm != nil {
		out["admitted"] = len(s.adm.sem)
		out["admitLimit"] = cap(s.adm.sem)
		out["waiting"] = s.adm.waiting.Load()
		out["queueDepth"] = s.adm.queueDepth
	}
	if rg := c.Ring(); rg != nil {
		out["ring"] = map[string]any{"self": rg.Self(), "members": rg.Members()}
	}
	writeJSON(w, status, out)
}

func (s *Service) handleMembershipGet(w http.ResponseWriter, r *http.Request) {
	rg := s.c.Ring()
	if rg == nil {
		writeJSON(w, http.StatusOK, map[string]any{"self": "", "members": []ring.Member{}})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"self": rg.Self(), "members": rg.Members()})
}

// handleMembershipPut replaces the replica's view of the ring membership:
// the operational hook for scaling the tier without restarts. The body is
// {"members": ["http://h1:8080", ...]}; the reply echoes the resulting
// membership. Down marks of retained members survive the update.
func (s *Service) handleMembershipPut(w http.ResponseWriter, r *http.Request) {
	rg := s.c.Ring()
	if rg == nil {
		httpError(w, http.StatusServiceUnavailable,
			errors.New("serve: no ring configured (start with -peers/-self)"))
		return
	}
	var body struct {
		Members []string `json:"members"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(body.Members) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("serve: empty membership"))
		return
	}
	for _, m := range body.Members {
		u, err := url.Parse(ring.Normalize(m))
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("serve: bad member URL %q: want http(s)://host[:port]", m))
			return
		}
	}
	rg.SetMembers(body.Members)
	s.handleMembershipGet(w, r)
}

// placed reports whether ring ownership places r: this replica is a member
// of a ring of two or more, and r was not already routed here by a peer. A
// routed request is counted "local": it is owned here even if membership
// skew says otherwise, so requests can never ping-pong.
func (s *Service) placed(r *http.Request) bool {
	rg := s.c.Ring()
	if rg == nil || rg.Self() == "" || rg.Len() < 2 {
		return false
	}
	if r.Header.Get(ring.HopHeader) != "" {
		s.ringResult("local")
		return false
	}
	return true
}

// routeSimulate applies ring ownership to one /simulate miss, resolved to
// rt. It returns true when the request was fully answered here (relayed from
// the owner, or abandoned because the caller hung up); false means the
// caller should execute locally — because this replica owns the key, the
// ring is absent, the request already hopped once, or the owner is
// unreachable (fallback).
//
// Ownership places misses, so that each is computed once, on one replica's
// single-flight, and every point of one cache group on the replica that
// holds the group's hit-rate table (Client.RingKey). A hit is the same
// bytes on every replica and is served where it lands (handleSimulate); a
// relayed reply is kept in the store's front, so the replica asked for a key
// a second time answers it itself.
func (s *Service) routeSimulate(w http.ResponseWriter, r *http.Request, rt musa.Route, body []byte) bool {
	if !s.placed(r) {
		return false
	}
	rg := s.c.Ring()
	// Only a miss derives the key it is placed by: its cache group's.
	key := s.c.RingKey(rt)
	owner := rg.Owner(key)
	if owner == "" || owner == rg.Self() {
		s.ringResult("local")
		return false
	}
	// The trace header rides along (the forwarder takes it from this span),
	// so the owner's span tree grafts under this request's across the hop.
	ctx, span := obs.StartSpan(r.Context(), "ring.proxy", obs.A("owner", owner))
	defer span.End()
	// One attempt: the owner, or nobody. A second replica would compute the
	// key beside the owner's single-flight; this one may as well do it itself.
	// The hop gets its own copy of body: a transport may still read a
	// request body after the round trip returns, and body is pooled scratch.
	err := s.fw.Send(ctx, owner,
		ring.Request{Method: http.MethodPost, Path: "/simulate", Header: r.Header, Body: bytes.Clone(body)},
		func(resp *http.Response) {
			// The reply is committed: owner-side errors (including its own
			// 429 shedding) pass through to the caller rather than
			// triggering a second, duplicate execution here.
			span.SetAttr("status", strconv.Itoa(resp.StatusCode))
			s.relayKept(w, resp, rt)
		})
	switch {
	case err == nil:
		span.SetAttr("outcome", "proxied")
		s.ringResult("proxied")
		return true
	case r.Context().Err() != nil:
		// The caller hung up mid-hop. The owner did not fail (the forwarder
		// marked nobody) and a local run would compute for no one.
		span.SetAttr("outcome", "canceled")
		return true
	}
	// The owner is unreachable — the forwarder has marked it Down for its
	// cooldown — so serve the request ourselves: correctness never depends
	// on placement, only efficiency.
	span.SetAttr("outcome", "unreachable")
	s.ringResult("fallback")
	return false
}

// maxKeptReply bounds the owner replies relayKept reads whole; a /simulate
// reply is a few KiB.
const maxKeptReply = 1 << 20

// relayKept relays the owner's reply to a /simulate on to the caller
// unchanged (ring.Relay). A 200 reply of at most maxKeptReply bytes is read
// whole first, and the measurement it carries kept in this replica's store
// front when it is the one rt routes (Client.KeepRelayed).
func (s *Service) relayKept(w http.ResponseWriter, resp *http.Response, rt musa.Route) {
	if resp.StatusCode == http.StatusOK {
		reply, err := io.ReadAll(io.LimitReader(resp.Body, maxKeptReply+1))
		if err != nil {
			httpError(w, http.StatusBadGateway, fmt.Errorf("serve: reading the owner's reply: %w", err))
			return
		}
		if len(reply) <= maxKeptReply {
			var out struct {
				Measurement *musa.Measurement `json:"measurement"`
			}
			if json.Unmarshal(reply, &out) == nil && out.Measurement != nil {
				s.c.KeepRelayed(rt, *out.Measurement)
			}
		}
		// Relay writes what was read, then whatever of an oversize body is left.
		resp.Body = struct {
			io.Reader
			io.Closer
		}{io.MultiReader(bytes.NewReader(reply), resp.Body), resp.Body}
	}
	ring.Relay(w, resp)
}
