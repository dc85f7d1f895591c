// Package ring turns N `musa serve` replicas into one logical service by
// deterministic key ownership: rendezvous (highest-random-weight) hashing
// maps every content-addressed key — result-store keys, artifact keys —
// onto an owner replica, so duplicate requests arriving at any front door
// converge on one machine's single-flight and one artifact cache instead
// of N redundant computations. Membership is a flat set of replica base
// URLs; every participant (replica, fleet coordinator, L7 router) derives
// the same owner from the same membership without coordination, and a
// membership change of one replica only remaps the keys that replica
// owned — the rendezvous property that makes rolling restarts cheap.
//
// Ownership is overlaid with local health knowledge: each process marks
// members it observed failing (or advertising /healthz degradation), and
// the fallback ordering demotes degraded members behind healthy ones
// without changing the hash. Health is deliberately local, not gossiped:
// when everyone is healthy every process agrees on the owner, and when a
// process sees a member down it alone reroutes until the member recovers.
//
// Moving a request to the member a key hashes to — which member, what
// counts as that member failing, and when it is tried again — is the
// Forwarder in forward.go; every process that routes into a ring uses it.
package ring

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// State is one member's locally observed health.
type State int32

const (
	// Ok is a healthy member: eligible as owner.
	Ok State = iota
	// Overloaded is a member shedding load (healthz "overloaded"): still
	// preferred over draining or down members — its queue drains in
	// seconds and moving its keys would forfeit coalescing — but demoted
	// behind healthy ones.
	Overloaded
	// Draining is a member finishing in-flight work before shutdown: new
	// work routes elsewhere.
	Draining
	// Down is a member that failed a request or probe entirely.
	Down
)

// String returns the healthz wire name of the state.
func (s State) String() string {
	switch s {
	case Ok:
		return "ok"
	case Overloaded:
		return "overloaded"
	case Draining:
		return "draining"
	case Down:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// ParseState maps a healthz wire name back onto its State.
func ParseState(s string) (State, error) {
	switch s {
	case "ok":
		return Ok, nil
	case "overloaded":
		return Overloaded, nil
	case "draining":
		return Draining, nil
	case "down":
		return Down, nil
	}
	return Down, fmt.Errorf("ring: unknown state %q", s)
}

// Member is one replica and its locally observed state.
type Member struct {
	URL   string `json:"url"`
	State string `json:"state"`
}

// DownCooldown is how long a transport failure (MarkDown) keeps a member
// demoted before it is optimistically tried again. Long enough that a dead
// member costs one failed dial per cooldown rather than one per request,
// short enough that a restarted one is back within a prober period or five.
const DownCooldown = 15 * time.Second

// health is one member's observed state. A zero until means the state
// holds until somebody reports another; a non-zero until (only ever set
// together with Down, by MarkDown) is the instant the mark lapses.
type health struct {
	state State
	until time.Time
}

// at is the state in force at now: a Down mark past its deadline reads Ok.
// Expiry is computed on read, so no timer or goroutine exists to clear it.
func (h health) at(now time.Time) State {
	if h.state == Down && !h.until.IsZero() && !now.Before(h.until) {
		return Ok
	}
	return h.state
}

// Ring is a rendezvous-hashed membership set. The zero value is unusable;
// construct with New. All methods are safe for concurrent use.
type Ring struct {
	self string
	now  func() time.Time // time.Now outside tests

	mu      sync.RWMutex
	members []string // sorted, unique, normalized (no trailing slash)
	state   map[string]health
}

// Normalize canonicalizes one member URL the way the ring stores it: the
// trailing slash is dropped so "http://h:80/" and "http://h:80" name the
// same member on every process.
func Normalize(member string) string {
	return strings.TrimRight(strings.TrimSpace(member), "/")
}

// New builds a ring over members. self names this process's own entry
// (empty for pure routers and coordinators that are not themselves
// replicas); it need not appear in members. Duplicates and empty entries
// are dropped.
func New(self string, members []string) *Ring {
	r := &Ring{self: Normalize(self), now: time.Now, state: map[string]health{}}
	r.SetMembers(members)
	return r
}

// SetClock replaces the clock MarkDown deadlines are set and read against,
// so a test can step past DownCooldown. Call it before the ring is shared.
func (r *Ring) SetClock(now func() time.Time) { r.now = now }

// Self returns this process's own member URL ("" when not a replica).
func (r *Ring) Self() string { return r.self }

// SetMembers replaces the membership. States of retained members survive;
// new members start Ok. The slice is normalized, deduplicated and sorted.
func (r *Ring) SetMembers(members []string) {
	seen := map[string]bool{}
	var clean []string
	for _, m := range members {
		m = Normalize(m)
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		clean = append(clean, m)
	}
	slices.Sort(clean)
	r.mu.Lock()
	defer r.mu.Unlock()
	state := make(map[string]health, len(clean))
	for _, m := range clean {
		state[m] = r.state[m] // absent -> Ok (zero value)
	}
	r.members = clean
	r.state = state
}

// Members returns the membership with each member's observed state,
// sorted by URL.
func (r *Ring) Members() []Member {
	r.mu.RLock()
	defer r.mu.RUnlock()
	now := r.now()
	out := make([]Member, len(r.members))
	for i, m := range r.members {
		out[i] = Member{URL: m, State: r.state[m].at(now).String()}
	}
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// SetState records a member's observed health, until the next report.
// Unknown members are ignored (a stale probe must not resurrect a removed
// member).
func (r *Ring) SetState(member string, s State) { r.set(member, health{state: s}) }

// MarkDown records that a request to member failed in transport: the
// member reads Down for DownCooldown and then Ok again, unless a SetState
// (a health prober that knows better) overrides the mark first.
func (r *Ring) MarkDown(member string) {
	r.set(member, health{state: Down, until: r.now().Add(DownCooldown)})
}

func (r *Ring) set(member string, h health) {
	member = Normalize(member)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.state[member]; ok {
		r.state[member] = h
	}
}

// StateOf returns a member's observed state (Down for non-members).
func (r *Ring) StateOf(member string) State {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.state[Normalize(member)]
	if !ok {
		return Down
	}
	return h.at(r.now())
}

// score is the rendezvous weight of (member, key): FNV-1a over both with
// a separator, finalized through splitmix64 so near-identical inputs
// (sequential ports, shared key prefixes) still spread uniformly. The
// function is the cross-process ownership contract — every participant
// must compute identical scores — so it is frozen here rather than
// delegated to anything runtime- or architecture-dependent.
func score(member, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(member); i++ {
		h = (h ^ uint64(member[i])) * prime64
	}
	h = (h ^ 0xff) * prime64 // separator: ("ab","c") != ("a","bc")
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	// splitmix64 finalizer.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Order returns the full fallback order for key: every member sorted by
// descending rendezvous score, then stably demoted by observed state
// (Ok, Overloaded, Draining, Down). With uniform health the order is
// identical on every process; degraded members sink only in the eyes of
// whoever observed the degradation.
func (r *Ring) Order(key string) []string {
	rs := r.rank(key)
	out := make([]string, len(rs))
	for i, x := range rs {
		out[i] = x.url
	}
	return out
}

// ranked is one member's place in a key's order.
type ranked struct {
	url   string
	score uint64
	state State
}

// rank is Order with each member's state in force attached.
func (r *Ring) rank(key string) []ranked {
	r.mu.RLock()
	now := r.now()
	rs := make([]ranked, len(r.members))
	for i, m := range r.members {
		rs[i] = ranked{url: m, score: score(m, key), state: r.state[m].at(now)}
	}
	r.mu.RUnlock()
	slices.SortFunc(rs, func(a, b ranked) int {
		return cmp.Or(
			cmp.Compare(a.state, b.state),
			cmp.Compare(b.score, a.score),
			cmp.Compare(a.url, b.url), // total order even on score collision
		)
	})
	return rs
}

// Owner returns the key's owner: the highest-scoring member among the
// healthiest state class ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	rs := r.rank(key)
	if len(rs) == 0 {
		return ""
	}
	return rs[0].url
}
