package serve

import (
	"encoding/json"
	"net/http"

	"musa"
	"musa/internal/ring"
)

// NewRouter returns the handler of `musa router`, the storeless L7 front
// door of a replica ring: it derives each request's route key and forwards
// the request to the ring's candidates for that key, so duplicate requests
// from many clients converge on one replica's single-flight and store.
//
//	POST /simulate      by the hit-rate key of the point's cache group
//	POST /dse, /shard   by the hash of the canonical sweep encoding
//	everything else     to the healthiest replica (ops endpoints, figures)
//
// keyer carries the ring (keyer.Ring(), without a self: a router is no
// replica) and the default fidelity flags, which must equal the replicas'
// for the keys to agree; it is never asked to run anything.
func NewRouter(keyer *musa.Client) http.Handler {
	fw := &ring.Forwarder{Ring: keyer.Ring(), HTTP: &http.Client{}}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := ring.Request{Method: r.Method, Path: r.URL.RequestURI(), Header: r.Header}
		key, ok := routeKey(keyer, w, r, &req)
		if !ok {
			return // the body could not be read; the reply is written
		}
		// Every candidate is worth a try — the router computes nothing itself
		// — and the first replica that answers, whatever its status, owns the
		// reply. The replica executes locally instead of re-routing (the
		// forwarder's hop header), even if its membership view disagrees.
		err := fw.Forward(r.Context(), key, 0, req, func(_ string, resp *http.Response) bool {
			ring.Relay(w, resp)
			return true
		})
		if err != nil && r.Context().Err() == nil {
			http.Error(w, "no replica reachable", http.StatusBadGateway)
		}
	})
}

// routeKey derives the key a request is routed by and buffers its body,
// so every candidate can be sent it again. ok false means the body could
// not be read and the caller has been answered.
func routeKey(keyer *musa.Client, w http.ResponseWriter, r *http.Request, req *ring.Request) (key string, ok bool) {
	if r.ContentLength == 0 {
		return "", true
	}
	if req.Body, ok = readBounded(w, r); !ok {
		return "", false
	}
	if r.Method != http.MethodPost ||
		(r.URL.Path != "/simulate" && r.URL.Path != "/dse" && r.URL.Path != "/shard") {
		return "", true // routed by health alone
	}
	var e musa.Experiment
	if json.Unmarshal(req.Body, &e) != nil {
		return "", true // routed by health alone; the replica answers the 400
	}
	if e.Kind == "" {
		e.Kind = musa.KindSweep
		if r.URL.Path == "/simulate" {
			e.Kind = musa.KindNode
		}
	}
	// A key derivation failure routes by health alone too: the replica
	// produces the authoritative validation error.
	key, _ = keyer.RouteKey(e)
	return key, true
}
