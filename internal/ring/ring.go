// Package ring turns N `musa serve` replicas into one logical service by
// deterministic key ownership: rendezvous (highest-random-weight) hashing
// maps every content-addressed key — result-store keys, artifact keys —
// onto an owner replica, so duplicate requests arriving at any front door
// converge on one machine's single-flight and one artifact cache instead
// of N redundant computations. Membership is a flat set of replica base
// URLs; every participant (replica, fleet coordinator) derives
// the same owner from the same membership without coordination, and a
// membership change of one replica only remaps the keys that replica
// owned — the rendezvous property that makes rolling restarts cheap.
//
// Ownership is overlaid with local health knowledge: each process marks
// Down, for DownCooldown, a member it failed to reach, and the fallback
// ordering demotes Down members behind Ok ones without changing the hash.
// Health is deliberately local, not gossiped: when everyone is reachable
// every process agrees on the owner, and when a process fails to reach a
// member it alone reroutes until the mark lapses.
//
// Moving a request to the member a key hashes to — which member, what
// counts as that member failing, and when it is tried again — is the
// Forwarder in forward.go.
package ring

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"
)

// State is one member's locally observed health.
type State int32

const (
	// Ok is a member eligible as owner.
	Ok State = iota
	// Down is a member a request failed to reach in the last DownCooldown
	// (Ring.MarkDown): ranked behind every Ok member.
	Down
)

// String returns the state's wire name in Members.
func (s State) String() string {
	if s == Down {
		return "down"
	}
	return "ok"
}

// Member is one replica and its locally observed state.
type Member struct {
	URL   string `json:"url"`
	State string `json:"state"`
}

// DownCooldown is how long a transport failure (MarkDown) keeps a member
// demoted before it is optimistically tried again. Long enough that a dead
// member costs one failed dial per cooldown rather than one per request,
// short enough that a restarted one is back within seconds.
const DownCooldown = 15 * time.Second

// stateAt is the state of a member whose last MarkDown lapses at until
// (zero: never marked), read at now. Expiry is computed on read, so no
// timer or goroutine exists to clear a mark.
func stateAt(until, now time.Time) State {
	if now.Before(until) {
		return Down
	}
	return Ok
}

// Ring is a rendezvous-hashed membership set. The zero value is unusable;
// construct with New. All methods are safe for concurrent use.
type Ring struct {
	self string
	now  func() time.Time // time.Now outside tests

	mu      sync.RWMutex
	members []string             // sorted, unique, normalized (no trailing slash)
	down    map[string]time.Time // every member -> when its MarkDown lapses (zero: never marked)
}

// Normalize canonicalizes one member URL the way the ring stores it: the
// trailing slash is dropped so "http://h:80/" and "http://h:80" name the
// same member on every process.
func Normalize(member string) string {
	return strings.TrimRight(strings.TrimSpace(member), "/")
}

// New builds a ring over members. self names this process's own entry
// (empty for coordinators that are not themselves replicas); it need not
// appear in members. Duplicates and empty entries are dropped.
func New(self string, members []string) *Ring {
	r := &Ring{self: Normalize(self), now: time.Now, down: map[string]time.Time{}}
	r.SetMembers(members)
	return r
}

// SetClock replaces the clock MarkDown deadlines are set and read against,
// so a test can step past DownCooldown. Call it before the ring is shared.
func (r *Ring) SetClock(now func() time.Time) { r.now = now }

// Self returns this process's own member URL ("" when not a replica).
func (r *Ring) Self() string { return r.self }

// SetMembers replaces the membership. Down marks of retained members
// survive; new members start Ok. The slice is normalized, deduplicated and
// sorted.
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
	down := make(map[string]time.Time, len(clean))
	for _, m := range clean {
		down[m] = r.down[m] // absent -> zero: Ok
	}
	r.members = clean
	r.down = down
}

// Members returns the membership with each member's observed state,
// sorted by URL.
func (r *Ring) Members() []Member {
	r.mu.RLock()
	defer r.mu.RUnlock()
	now := r.now()
	out := make([]Member, len(r.members))
	for i, m := range r.members {
		out[i] = Member{URL: m, State: stateAt(r.down[m], now).String()}
	}
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// MarkDown records that a request to member failed in transport: the
// member reads Down for DownCooldown and then Ok again. Non-members are
// ignored (a late failure must not resurrect a removed member).
func (r *Ring) MarkDown(member string) {
	member = Normalize(member)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.down[member]; ok {
		r.down[member] = r.now().Add(DownCooldown)
	}
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
// descending rendezvous score, with members marked Down after every Ok
// one. With uniform health the order is identical on every process; a
// Down member sinks only in the eyes of whoever marked it.
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
		rs[i] = ranked{url: m, score: score(m, key), state: stateAt(r.down[m], now)}
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

// Owner returns the key's owner: the highest-scoring Ok member, or the
// highest-scoring member when all are Down ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	rs := r.rank(key)
	if len(rs) == 0 {
		return ""
	}
	return rs[0].url
}
