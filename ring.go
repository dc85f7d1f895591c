package musa

import (
	"musa/internal/dse"
	"musa/internal/ring"
)

// This file is the client half of the horizontally scaled serve tier: the
// replica ring (re-exported from internal/ring), the route-key derivation
// that maps an experiment onto its owner replica, and the store side of
// /simulate routing (a stored hit is answered where it lands, a relayed
// measurement kept in the store front). A node experiment is placed by its
// cache group's hit-rate key, the key the fleet scheduler pins that group's
// shards by (fleet.go), so the points that share one cache walk are
// simulated on the replica that holds its table. The serve layer consults
// the same ring for /simulate ownership (internal/serve), so every replica
// is a front door that converges duplicate work on one machine.

// Ring is the rendezvous-hashed replica membership a serve tier shares;
// see internal/ring for ownership and health semantics.
type Ring = ring.Ring

// NewRing builds a replica ring over the member base URLs. self is this
// process's own URL when it is itself a replica (`musa serve -self`), empty
// for a process that only sends into the ring.
func NewRing(self string, members []string) *Ring { return ring.New(self, members) }

// Ring returns the client's replica ring (nil when the client is not a
// replica of a serve tier). The serve handlers read it for /simulate
// ownership and PUT /membership updates.
func (c *Client) Ring() *Ring { return c.opts.Ring }

// RouteKey returns the key under which the experiment is placed on a
// replica ring. A node experiment is placed by the hit-rate key of its
// application and cache group at its fidelity and seed (dse.HitRateKey), so
// every point of one cache group, and every request for one point,
// meets on one replica's single-flight and artifact cache; every other kind
// by the hash of its canonical encoding. The key is derived after the
// client's defaults are applied, so replicas must run with identical
// default flags (the same operational contract fleet shard dispatch already
// relies on).
func (c *Client) RouteKey(e Experiment) (string, error) {
	rt, err := c.Route(e)
	return c.RingKey(rt), err
}

// A Route is an experiment's place in a replica ring's serve tier. Key is
// the store key a node experiment's measurement lives under (for every
// other kind, its RouteKey). A node experiment's route also holds what
// StoredReply, RingKey and KeepRelayed need of it, so a replica that holds
// Key answers without deriving the ring key or decoding the measurement.
type Route struct {
	Key       string
	app       string
	arch      *Arch // nil for every kind but KindNode
	sample    int64
	warmup    int64
	seed      uint64
	recompute bool
}

// Route derives the experiment's store key, keeping what StoredReply,
// RingKey and KeepRelayed need of a node experiment.
func (c *Client) Route(e Experiment) (Route, error) {
	ne, err := c.fill(e).normalize(c.knowsApp)
	if err != nil {
		return Route{}, err
	}
	if ne.Kind == KindNode {
		return Route{Key: nodeKey(ne, ne.App, c.customProfile(ne.App), *ne.Arch), app: ne.App, arch: ne.Arch,
			sample: ne.Sample, warmup: ne.Warmup, seed: ne.Seed, recompute: ne.Recompute}, nil
	}
	b, err := ne.appendCanonicalJSON(nil, c.customProfile(ne.App))
	if err != nil {
		return Route{}, err
	}
	return Route{Key: hashKey(b)}, nil
}

// RingKey returns the key rt is placed on a replica ring by: its RouteKey.
func (c *Client) RingKey(rt Route) string {
	if rt.arch == nil {
		return rt.Key
	}
	g := dse.CacheGroup{Cores: rt.arch.Cores, Vec: rt.arch.VectorBits, Cache: rt.arch.CacheLabel}
	return dse.HitRateKey(c.appHash(rt.app), g, rt.sample, rt.warmup, rt.seed)
}

// App is the application a node experiment's route names ("" for every
// other kind): the app of the measurement stored under its Key.
func (rt Route) App() string { return rt.app }

// AppendLabel appends the architecture label of a node experiment's route
// to dst (nothing for every other kind): the label of the measurement stored
// under its Key.
func (rt Route) AppendLabel(dst []byte) []byte {
	if rt.arch == nil {
		return dst
	}
	p, _ := rt.arch.toPoint() // normalized: valid
	return p.AppendLabel(dst)
}

// StoredReply returns the measurement the result store holds for the node
// experiment routed by rt in its POST /simulate reply form (store.Reply),
// counted as Run counts a store hit; it has nothing for an experiment that
// asks to Recompute. A stored measurement is the same bytes on every
// replica, so a replica that holds one answers it itself rather than
// routing it to the key's owner: ownership exists to place misses. The
// bytes are shared with the store's front and must not be modified.
func (c *Client) StoredReply(rt Route) ([]byte, bool) {
	if c.st == nil || rt.arch == nil || rt.recompute {
		return nil, false
	}
	reply, ok := c.st.Reply(rt.Key)
	if !ok {
		return nil, false
	}
	c.requests.Add(1)
	c.storeHits.Add(1)
	return reply, true
}

// KeepRelayed keeps m, the measurement another ring member answered the
// node experiment routed by rt with, in the result store's in-memory front,
// so the next request for it is served here without a hop. Nothing reaches
// the store's engine: the owner persists what it computed, and what a
// non-owner relays is gone when it restarts. Nothing is kept when rt is not
// a node experiment's or m is not its application's measurement at its
// architecture.
func (c *Client) KeepRelayed(rt Route, m Measurement) {
	if c.st == nil || rt.arch == nil || m.App != rt.app || archOfPoint(m.Arch) != *rt.arch {
		return
	}
	c.st.Keep(rt.Key, m)
}
