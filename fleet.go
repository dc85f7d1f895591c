package musa

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"musa/internal/apps"
	"musa/internal/dse"
	"musa/internal/obs"
	"musa/internal/ring"
)

// This file is the fleet half of a distributed sweep. A sweep over remote
// `musa serve` workers is the ordinary in-process sweep (runSweep, dse.Run)
// with one hook set, dse.Options.Remote: every annotation group's points
// that the store does not hold get one attempt at a worker over POST /shard,
// placed by a ring over the workers under the key a /simulate of any of
// those points routes by (Client.RingKey). On any failure the dse.Run
// worker that holds the group simulates it in place, so the group completes
// exactly once and the dataset holds exactly one measurement per point.

// ErrBadWorker reports an unusable fleet worker URL in ClientOptions.
var ErrBadWorker = errors.New("musa: bad fleet worker URL")

const (
	defaultShardTimeout = 10 * time.Minute
	healthProbeWindow   = 5 * time.Second
	// maxWorkerSlots clamps the maxJobs a worker's /healthz advertises, so
	// a misconfigured worker cannot make the coordinator open hundreds of
	// connections.
	maxWorkerSlots = 16
	// maxShardReplyPerPoint bounds a /shard reply per requested point: a
	// measurement encodes to about 1.2 KB (4 KB with 16 replay rank counts).
	maxShardReplyPerPoint = 64 << 10
)

// jsonHeader is the header of every JSON body a client sends. Read-only.
var jsonHeader = http.Header{"Content-Type": {"application/json"}}

// gridIndex maps a Table I point's label onto its grid index: a shard names
// its points by index on the wire.
var gridIndex = sync.OnceValue(func() map[string]int {
	grid := tableIGrid()
	m := make(map[string]int, len(grid))
	for i, p := range grid {
		m[p.Label()] = i
	}
	return m
})

// fleet is the validated remote-worker configuration of a Client.
type fleet struct {
	bases   []string      // normalized base URLs, no trailing slash
	timeout time.Duration // one shard attempt's bound
	// fw sends every probe and shard over a ring of bases, which places
	// the groups and keeps the workers' Down marks; its client shares the
	// process's default transport and connection pool.
	fw *ring.Forwarder
}

// newFleet validates the worker base URLs (http/https with a host) and
// builds the ring over them. A worker listed twice, with or without a
// trailing slash, is one worker: its advertised slots count once. A shard
// timeout <= 0 is the default: with one attempt per group, an unbounded
// attempt at a stalled worker would hang the sweep.
func newFleet(workers []string, shardTimeout time.Duration) (*fleet, error) {
	f := &fleet{timeout: shardTimeout}
	if f.timeout <= 0 {
		f.timeout = defaultShardTimeout
	}
	for _, w := range workers {
		u, err := url.Parse(strings.TrimRight(w, "/"))
		if err != nil {
			return nil, fmt.Errorf("%w %q: %v", ErrBadWorker, w, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("%w %q: want http(s)://host[:port]", ErrBadWorker, w)
		}
		if base := u.String(); !slices.Contains(f.bases, base) {
			f.bases = append(f.bases, base)
		}
	}
	f.fw = &ring.Forwarder{Ring: ring.New("", f.bases), HTTP: &http.Client{}}
	return f, nil
}

// slots probes GET {base}/healthz and returns the worker's maxJobs, clamped
// to [1, maxWorkerSlots]. Only a healthy worker has slots: a draining or
// overloaded one answers 503 and would refuse every shard.
func (f *fleet) slots(ctx context.Context, base string) (n int, err error) {
	req := ring.Request{Method: http.MethodGet, Path: "/healthz", Timeout: healthProbeWindow}
	serr := f.fw.Send(ctx, base, req, func(resp *http.Response) {
		var out struct {
			MaxJobs int `json:"maxJobs"`
		}
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("musa: %s/healthz: %s", base, resp.Status)
		} else if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&out); derr != nil {
			err = fmt.Errorf("musa: %s/healthz: %v", base, derr)
		} else {
			n = min(max(out.MaxJobs, 1), maxWorkerSlots)
		}
	})
	if serr != nil {
		return 0, serr
	}
	return n, err
}

// postShard sends one shard sub-experiment to a worker and returns its
// measurements. The request is bounded by the fleet's shard timeout and
// the reply by maxShardReplyPerPoint per point, and the forwarder stamps it
// with the dispatch span, so the worker's request span (and the whole
// worker-side tree under it) parents into this coordinator trace. Any
// status but 200 — a 429 shed included — is an error.
func (f *fleet) postShard(ctx context.Context, base string, e Experiment) (ms []Measurement, err error) {
	body, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	req := ring.Request{Method: http.MethodPost, Path: "/shard", Header: jsonHeader, Body: body, Timeout: f.timeout}
	serr := f.fw.Send(ctx, base, req, func(resp *http.Response) {
		switch resp.StatusCode {
		case http.StatusOK:
			var out struct {
				Measurements []Measurement `json:"measurements"`
			}
			limit := int64(len(e.PointIndices)) * maxShardReplyPerPoint
			lr := &io.LimitedReader{R: resp.Body, N: limit}
			if err = json.NewDecoder(lr).Decode(&out); err != nil && lr.N == 0 {
				err = fmt.Errorf("musa: %s/shard: reply over %d bytes", base, limit)
			} else if err != nil {
				err = fmt.Errorf("musa: %s/shard: %v", base, err)
			}
			ms = out.Measurements
		default:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
			err = fmt.Errorf("musa: %s/shard: %s: %s", base, resp.Status, strings.TrimSpace(string(msg)))
		}
	})
	if serr != nil {
		return nil, serr
	}
	return ms, err
}

// validateShardReply checks a worker's measurements against the group it
// was sent: one measurement of app per point, no strays, no duplicates. A
// mismatching reply is a failed attempt, and the group is simulated here.
func validateShardReply(app string, points []dse.ArchPoint, ms []Measurement) error {
	if len(ms) != len(points) {
		return fmt.Errorf("musa: shard %s: %d measurements for %d points", app, len(ms), len(points))
	}
	pending := make(map[string]bool, len(points))
	for _, p := range points {
		pending[p.Label()] = true
	}
	for _, m := range ms {
		label := m.Arch.Label()
		if m.App != app {
			return fmt.Errorf("musa: shard %s: stray app %q", app, m.App)
		}
		p, ok := pending[label]
		if !ok {
			return fmt.Errorf("musa: shard %s: stray point %s", app, label)
		}
		if !p {
			return fmt.Errorf("musa: shard %s: duplicate point %s", app, label)
		}
		pending[label] = false
	}
	return nil
}

// shardExperiment builds the wire sub-experiment of a group: the normalized
// sweep restricted to one application and the group's points, named by
// grid index. Every field a worker could otherwise default is explicit —
// seed, replay ranks and network come normalized, and an implicit (zero)
// fidelity is materialized to the package defaults the node simulator and
// the artifact keys apply — so a worker started with its own
// -sample/-warmup/-replay defaults computes exactly the measurements the
// coordinator expects. It reports false when a point is off the grid: the
// wire cannot name it, and the group runs in process.
func shardExperiment(ne Experiment, app string, points []dse.ArchPoint) (Experiment, bool) {
	indices := make([]int, len(points))
	for k, p := range points {
		i, ok := gridIndex()[p.Label()]
		if !ok {
			return Experiment{}, false
		}
		indices[k] = i
	}
	sample, warmup := apps.EffectiveFidelity(ne.Sample, ne.Warmup)
	return Experiment{
		Kind: KindSweep, Apps: []string{app}, PointIndices: indices,
		Sample: sample, Warmup: warmup, Seed: ne.Seed,
		ReplayRanks: ne.ReplayRanks, NoReplay: ne.NoReplay, Network: ne.Network,
		Recompute: ne.Recompute,
	}, true
}

// fleetSweep is one sweep's use of the fleet: the free slots of the workers
// whose /healthz answered, and what a group's measurements are kept by.
type fleetSweep struct {
	c    *Client
	ne   Experiment
	keep func(Measurement) // checkpoint and deliver, as for a simulated point
	mu   sync.Mutex
	free map[string]int
}

// newFleetSweep probes every worker's /healthz concurrently and returns the
// sweep's use of the fleet and its slot total. It returns nil and 0, and
// the sweep runs in process, when no worker is healthy or the sweep names a
// custom application: those are registered only on this client, so the
// workers could not resolve them.
func (c *Client) newFleetSweep(ctx context.Context, ne Experiment, keep func(Measurement)) (*fleetSweep, int) {
	for _, name := range ne.Apps {
		if c.customProfile(name) != nil {
			return nil, 0
		}
	}
	slots := make([]int, len(c.fleet.bases))
	var wg sync.WaitGroup
	for i, base := range c.fleet.bases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots[i], _ = c.fleet.slots(ctx, base) // 0 when it failed
		}()
	}
	wg.Wait()
	s := &fleetSweep{c: c, ne: ne, keep: keep, free: map[string]int{}}
	total := 0
	for i, n := range slots {
		s.free[c.fleet.bases[i]] = n
		total += n
	}
	if total == 0 {
		return nil, 0
	}
	return s, total
}

// take claims a slot at the first worker in key's ring order that has one
// free: the group's owner, another worker only while the owner is full.
// Empty when none has.
func (s *fleetSweep) take(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.c.fleet.fw.Ring.Pick(key, func(m string) bool { return s.free[m] > 0 })
	if w != "" {
		s.free[w]--
	}
	return w
}

// remote is the sweep's dse.Options.Remote: one attempt at a worker for
// one annotation group's uncached points. A failed, timed-out, shed or
// refused attempt counts one redispatch and reports false, as does a
// group no worker has a free slot for or off the grid, without counting.
func (s *fleetSweep) remote(ctx context.Context, app string, points []dse.ArchPoint) ([]Measurement, bool) {
	sub, ok := shardExperiment(s.ne, app, points)
	if !ok {
		return nil, false
	}
	w := s.take(s.c.groupKey(s.ne, app, points[0]))
	if w == "" {
		return nil, false
	}
	defer func() {
		s.mu.Lock()
		s.free[w]++
		s.mu.Unlock()
	}()
	dctx, span := obs.StartSpan(ctx, "fleet.dispatch",
		obs.A("worker", w), obs.A("app", app), obs.AInt("points", len(points)))
	defer span.End()
	start := time.Now()
	ms, err := s.c.fleet.postShard(dctx, w, sub)
	if err == nil {
		err = validateShardReply(app, points, ms)
	}
	if err != nil {
		span.SetAttr("outcome", "error")
		if ctx.Err() == nil {
			s.c.redispatched.Add(1)
		}
		return nil, false
	}
	obs.DefaultRegistry().Histogram("musa_fleet_shard_seconds",
		"Time to complete one fleet shard, by execution path.", nil,
		obs.L("path", "remote")).Observe(time.Since(start).Seconds())
	span.SetAttr("outcome", "ok")
	s.c.remote.Add(int64(len(ms)))
	for _, m := range ms {
		s.keep(m)
	}
	return ms, true
}
