// Package serve is the HTTP face of the simulation pipeline: its handlers
// decode requests straight into musa.Experiment — the one validated request
// type of the public API — and execute them through musa.Client, which owns
// the content-addressed result store, single-flight coalescing of duplicate
// in-flight requests and the bounded job pool. `musa serve` and
// `musa dse` therefore share one pipeline and one cache.
package serve

import (
	"net/http"
	"sync/atomic"

	"musa"
	"musa/internal/obs"
	"musa/internal/ring"
)

// Service wraps the shared musa.Client for the HTTP handlers, plus the
// replica-local serve-tier state: the bounded admission queue, the
// draining flag, and the forwarder non-owned /simulate requests leave
// through. The ring itself lives on the client (musa.ClientOptions.Ring) so
// the artifact layer and the serve handlers share one membership view.
type Service struct {
	c *musa.Client

	// Serve-tier state, configured by NewHandler from its Options.
	adm      *admission
	draining atomic.Bool
	reg      *obs.Registry
	fw       *ring.Forwarder // over c.Ring(); unused when that is nil
}

// New returns a service executing requests through c. The client (and its
// store) stays owned by the caller; the service does not close it.
func New(c *musa.Client) *Service {
	return &Service{c: c, fw: &ring.Forwarder{Ring: c.Ring(), HTTP: http.DefaultClient}}
}

// Client exposes the underlying client (the /stats endpoint reports its
// counters and store size).
func (s *Service) Client() *musa.Client { return s.c }
