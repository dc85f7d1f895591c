package musa

import (
	"net/http"

	"musa/internal/ring"
	"musa/internal/store"
)

// This file is the client half of the horizontally scaled serve tier: the
// replica ring (re-exported from internal/ring), the route-key derivation
// that maps an experiment onto its owner replica, the store side of
// /simulate routing (a stored hit is answered where it lands, a relayed
// measurement kept in the store front), and the blob-backend
// decorator that lets any ring participant fetch a missing sweep artifact
// from the replica that owns its key — and replicate freshly built ones
// back to the owner — instead of recomputing. The serve layer consults the
// same ring for /simulate ownership (internal/serve), the fleet scheduler
// for shard placement (fleet.go), and cmd/musa-router for thin L7 routing,
// so every front door converges duplicate work on one machine.

// Ring is the rendezvous-hashed replica membership a serve tier shares;
// see internal/ring for ownership and health semantics.
type Ring = ring.Ring

// RingState is one member's locally observed health state.
type RingState = ring.State

// Re-exported ring health states.
const (
	RingOk         = ring.Ok
	RingOverloaded = ring.Overloaded
	RingDraining   = ring.Draining
	RingDown       = ring.Down
)

// NewRing builds a replica ring over the member base URLs. self is this
// process's own URL when it is itself a replica (musa-serve -self), empty
// for coordinators and routers that only dispatch into the ring.
func NewRing(self string, members []string) *Ring { return ring.New(self, members) }

// Ring returns the client's replica ring (nil when the client is not part
// of, or routing into, a serve tier). The serve handlers read it for
// /simulate ownership and PUT /membership updates.
func (c *Client) Ring() *Ring { return c.opts.Ring }

// RouteKey returns the content address under which the experiment is
// routed across a replica ring — for node experiments the result-store key
// itself, so a proxied request coalesces with the owner's local
// single-flight and store; for every other kind the hash of the canonical
// encoding. The key is derived after the client's defaults are applied,
// so replicas must run with identical default flags (the same operational
// contract fleet shard dispatch already relies on).
func (c *Client) RouteKey(e Experiment) (string, error) {
	rt, err := c.Route(e)
	return rt.Key, err
}

// A Route is an experiment's place on a replica ring: Key is its RouteKey.
// A node experiment's route also holds the application and architecture of
// the measurement stored under Key, so KeepRelayed checks a reply against
// the request without deriving the key a second time.
type Route struct {
	Key  string
	app  string
	arch *Arch // nil for every kind but KindNode
}

// Route is RouteKey, keeping what KeepRelayed needs of a node experiment.
func (c *Client) Route(e Experiment) (Route, error) {
	ne, err := c.fill(e).normalize(c.knowsApp)
	if err != nil {
		return Route{}, err
	}
	if ne.Kind == KindNode {
		return Route{Key: nodeKey(ne, ne.App, c.customProfile(ne.App), *ne.Arch), app: ne.App, arch: ne.Arch}, nil
	}
	b, err := ne.appendCanonicalJSON(nil, c.customProfile(ne.App))
	if err != nil {
		return Route{}, err
	}
	return Route{Key: hashKey(b)}, nil
}

// Stored reports whether the result store holds a measurement under key.
// A stored measurement is the same bytes on every replica, so a replica
// that holds one answers it itself rather than routing it to the key's
// owner: ownership exists to place misses.
func (c *Client) Stored(key string) bool {
	if c.st == nil {
		return false
	}
	_, ok := c.st.Get(key)
	return ok
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

// ringBlobs decorates a client's local artifact storage with the replica
// ring, at blob level: the client's store.ArtifactCache sits on top and
// stays the one place artifacts are decoded, and local storage stays the
// source of truth for the running sweep.
type ringBlobs struct {
	c     *Client
	local store.BlobBackend
}

// Get serves key from local storage, else from a peer (read-through). Best
// effort with a bounded fan-out: two candidates — the owner and its first
// fallback — are asked, nobody else: a cold ring must degrade to local
// recompute, not to a full membership sweep per miss. A reply enters
// through PutBlob, which validates it (schema, key binding, kind, payload),
// stores it locally and keeps the decoded value: a corrupt or mis-keyed
// reply is dropped here, and the typed read above finds a good one already
// decoded.
func (b *ringBlobs) Get(key string) ([]byte, error) {
	blob, err := b.local.Get(key)
	if err == nil || b.c.fw.Ring.Len() == 0 {
		return blob, err
	}
	ferr := b.c.fw.Forward(b.c.ctx, key, 2, artifactGet(key), func(_ string, resp *http.Response) bool {
		var rerr error
		blob, rerr = readArtifact(resp)
		return rerr == nil && b.c.art.PutBlob(key, blob) == nil
	})
	if ferr != nil {
		b.c.peerArtifactMisses.Add(1)
		return nil, err
	}
	b.c.peerArtifactsFetched.Add(1)
	return blob, nil
}

// Put stores blob locally and pushes it to the owner of its key
// (write-behind), so the next replica that misses fetches it from where
// the ring says it lives. Only replicas replicate (self != ""):
// coordinators already push shard artifacts ahead of dispatch.
// Asynchronous and best effort — a lost push costs one future recompute,
// nothing else — under the client's lifetime: Close cancels and awaits it.
func (b *ringBlobs) Put(key string, blob []byte) error {
	err := b.local.Put(key, blob)
	if b.c.fw.Ring.OwnsLocally(key) {
		return err // the owner, or no replica at all
	}
	b.c.bg.Add(1)
	go func() {
		defer b.c.bg.Done()
		// One attempt: the owner, since this replica is not it.
		ferr := b.c.fw.Forward(b.c.ctx, key, 1, artifactPut(key, blob), func(_ string, resp *http.Response) bool {
			_, perr := putOutcome(resp)
			return perr == nil
		})
		if ferr == nil {
			b.c.peerArtifactsReplicated.Add(1)
		}
	}()
	return err
}
