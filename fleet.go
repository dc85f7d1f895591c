package musa

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"musa/internal/apps"
	"musa/internal/dse"
	"musa/internal/obs"
	"musa/internal/ring"
)

// This file is the distributed sweep scheduler: a sweep experiment is split
// into per-(application, annotation-group) shards, each shard is dispatched
// to a `musa serve` worker over POST /shard, and the results are merged back
// into the same deterministic (app, arch-label) order the in-process runner
// produces. The dispatch policy is one rule: a ring over the fleet's own
// workers pins each shard, the shard gets one attempt at a worker, and on
// any failure it runs once in the local pool. A shard is taken from the
// pending list once and fails at most once, so it completes exactly once
// and the merged dataset holds exactly one measurement per point.

// ErrBadWorker reports an unusable fleet worker URL in ClientOptions.
var ErrBadWorker = errors.New("musa: bad fleet worker URL")

// observeShard records one shard execution into the fleet shard-duration
// histogram. path distinguishes the remote dispatch from the local pool,
// so a dashboard can tell worker latency from fallback latency.
func observeShard(path string, start time.Time) {
	obs.DefaultRegistry().Histogram("musa_fleet_shard_seconds",
		"Time to complete one fleet shard, by execution path.", nil,
		obs.L("path", path)).Observe(time.Since(start).Seconds())
}

const (
	defaultShardTimeout = 10 * time.Minute
	capacityProbeWindow = 5 * time.Second
	// maxWorkerSlots clamps an advertised /capacity so a misconfigured
	// worker cannot make the coordinator open hundreds of connections.
	maxWorkerSlots = 16
	// maxShardReplyPerPoint bounds a /shard reply per requested point: a
	// measurement encodes to about 1.2 KB (4 KB with 16 replay rank counts).
	maxShardReplyPerPoint = 64 << 10
)

// fleetHTTP carries the fleet traffic — capacity probes and shards — of
// every client in the process.
var fleetHTTP = &http.Client{}

// jsonHeader is the header of every JSON body a client sends. Read-only.
var jsonHeader = http.Header{"Content-Type": {"application/json"}}

// fleet is the validated remote-worker configuration of a Client.
type fleet struct {
	bases   []string      // normalized base URLs, no trailing slash
	timeout time.Duration // one shard attempt's bound
	// fw sends every probe and shard over a ring of bases, which places
	// the shards and keeps the workers' Down marks.
	fw *ring.Forwarder
}

// newFleet validates the worker base URLs (http/https with a host) and
// builds the ring over them. A worker listed twice, with or without a
// trailing slash, is one worker: the dispatch loop runs its advertised
// capacity once. A shard timeout <= 0 is the default: with one attempt per
// shard, an unbounded attempt at a stalled worker would hang the sweep.
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
	f.fw = &ring.Forwarder{Ring: ring.New("", f.bases), HTTP: fleetHTTP}
	return f, nil
}

// capacity probes GET {base}/capacity and returns the advertised concurrent
// job count, clamped to [1, maxWorkerSlots].
func (f *fleet) capacity(ctx context.Context, base string) (n int, err error) {
	req := ring.Request{Method: http.MethodGet, Path: "/capacity", Timeout: capacityProbeWindow}
	serr := f.fw.Send(ctx, base, req, func(resp *http.Response) {
		var out struct {
			MaxJobs int `json:"maxJobs"`
		}
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("musa: %s/capacity: %s", base, resp.Status)
		} else if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&out); derr != nil {
			err = fmt.Errorf("musa: %s/capacity: %v", base, derr)
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

// shardJob is one dispatch unit: the points of one (application,
// annotation-group) pair that were not already in the result store.
type shardJob struct {
	app     string
	indices []int             // ascending Table I grid indices
	keys    map[string]string // arch label -> store key, also the expected-point set
	// prefer is the worker this shard is pinned to: the first reachable
	// worker in the fleet ring's order for the shard's annotation key, so
	// the whole tier executes a group where its artifacts live. Empty when
	// that order names no reachable worker: any worker takes the shard.
	prefer string
}

// pendingShards is the one dispatch structure: the planned shards nobody
// has taken yet, in plan order. A worker slot takes its first preferred
// shard, else the first shard at all — which is a shared FIFO when nothing
// is pinned and work stealing when something is. Shards are only ever
// removed.
type pendingShards struct {
	mu    sync.Mutex
	items []*shardJob
}

// take removes and returns the next shard for worker; nil when none is
// left.
func (p *pendingShards) take(worker string) *shardJob {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.items) == 0 {
		return nil
	}
	i := max(0, slices.IndexFunc(p.items, func(j *shardJob) bool { return j.prefer == worker }))
	j := p.items[i]
	p.items = slices.Delete(p.items, i, i+1)
	return j
}

// planShards groups each application's remaining grid indices into
// per-annotation-group shards (dse.AnnGroup — the grouping under which
// dse.Run shares one annotation pass, so dispatching a whole group keeps a
// remote worker as efficient as the local runner). The plan is
// deterministic and ordered for artifact locality: applications first,
// then memory kind, cores, vector width and cache label — shards that
// share burst traces (same app) and DRAM latency curves (same app and
// memory kind) sit adjacent in the dispatch queue, so consecutive pulls by
// the same worker reuse its freshest artifacts. keyOf maps a unit onto its
// store key; the shard keeps the label->key map both to warm the
// coordinator store and to validate a worker's reply.
func planShards(appNames []string, remaining map[string][]int, keyOf func(app string, i int) string) []*shardJob {
	grid := tableIGrid()
	var out []*shardJob
	for _, app := range appNames {
		groups := map[dse.AnnGroup]*shardJob{}
		for _, i := range remaining[app] {
			gk := grid[i].AnnGroup()
			j := groups[gk]
			if j == nil {
				j = &shardJob{app: app, keys: map[string]string{}}
				groups[gk] = j
				out = append(out, j)
			}
			j.indices = append(j.indices, i)
			j.keys[grid[i].Label()] = keyOf(app, i)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		ja, jb := out[a], out[b]
		if ja.app != jb.app {
			return ja.app < jb.app
		}
		ga, gb := grid[ja.indices[0]].AnnGroup(), grid[jb.indices[0]].AnnGroup()
		if ga.Mem != gb.Mem {
			return ga.Mem < gb.Mem
		}
		if ga.Cores != gb.Cores {
			return ga.Cores < gb.Cores
		}
		if ga.Vec != gb.Vec {
			return ga.Vec < gb.Vec
		}
		return ga.Cache < gb.Cache
	})
	return out
}

// shardKey is the key the fleet ring pins a shard by: its annotation
// group's hit-rate table key, the same key a /simulate of any of its
// points routes by (RouteKey), so a group's requests and shards meet on
// one replica. Empty for a custom application, which never reaches the
// fleet.
func shardKey(ne Experiment, j *shardJob) string {
	hash, ok := builtinHashes()[j.app]
	if !ok {
		return ""
	}
	g := tableIGrid()[j.indices[0]].AnnGroup()
	return dse.HitRateKey(hash, g.CacheGroup(), ne.Sample, ne.Warmup, ne.Seed)
}

// validateShardReply checks a worker's measurements against the shard: one
// measurement per requested point, no strays, no duplicates. A mismatching
// reply is treated like a failed worker and the shard runs locally.
func (j *shardJob) validateShardReply(ms []Measurement) error {
	if len(ms) != len(j.indices) {
		return fmt.Errorf("musa: shard %s: %d measurements for %d points", j.app, len(ms), len(j.indices))
	}
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		label := m.Arch.Label()
		if m.App != j.app {
			return fmt.Errorf("musa: shard %s: stray app %q", j.app, m.App)
		}
		if _, ok := j.keys[label]; !ok {
			return fmt.Errorf("musa: shard %s: stray point %s", j.app, label)
		}
		if seen[label] {
			return fmt.Errorf("musa: shard %s: duplicate point %s", j.app, label)
		}
		seen[label] = true
	}
	return nil
}

// shardExperiment builds the wire sub-experiment of a shard: the normalized
// sweep restricted to the shard's application and points. Every field a
// worker could otherwise default is explicit — seed, replay ranks and
// network come normalized, and an implicit (zero) fidelity is materialized
// to the package defaults the local pool would simulate with — so a worker
// started with its own -sample/-warmup/-replay defaults computes exactly
// the measurements the coordinator expects.
func shardExperiment(ne Experiment, j *shardJob) Experiment {
	// The one defaulting rule the node simulator applies and the artifact
	// keys hash — materialized on the wire so a worker's own defaults
	// never apply.
	sample, warmup := apps.EffectiveFidelity(ne.Sample, ne.Warmup)
	return Experiment{
		Kind: KindSweep, Apps: []string{j.app}, PointIndices: j.indices,
		Sample: sample, Warmup: warmup, Seed: ne.Seed,
		ReplayRanks: ne.ReplayRanks, NoReplay: ne.NoReplay, Network: ne.Network,
		Recompute: ne.Recompute,
	}
}

// fleetEligible reports whether a normalized sweep can be dispatched to the
// fleet: every application must be a built-in (workers cannot resolve this
// client's registered custom profiles).
func (c *Client) fleetEligible(ne Experiment) bool {
	for _, name := range ne.Apps {
		if c.customProfile(name) != nil {
			return false
		}
	}
	return true
}

// runShardLocal executes one shard in process — the fallback path.
// The shard is one annotation group, which dse.Run walks sequentially, so
// parallelism comes from the number of local pool goroutines instead.
func (c *Client) runShardLocal(ctx context.Context, ne Experiment, j *shardJob) ([]Measurement, error) {
	app, err := c.resolveApp(j.app)
	if err != nil {
		return nil, err // unreachable: ne is normalized
	}
	grid := tableIGrid()
	points := make([]dse.ArchPoint, len(j.indices))
	for k, i := range j.indices {
		points[k] = grid[i]
	}
	d := dse.Run(ctx, c.runOptions(ne, []*apps.Profile{app}, points))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(d.Measurements) != len(points) {
		return nil, fmt.Errorf("musa: local shard %s: %d measurements for %d points",
			j.app, len(d.Measurements), len(points))
	}
	c.simulated.Add(int64(len(d.Measurements)))
	return d.Measurements, nil
}

// runSweepFleet is the distributed counterpart of runSweep. The store is
// consulted up front (cached points are never dispatched), the remaining
// points are sharded and spread across the fleet with per-worker bounded
// in-flight requests, and every completed shard — remote or local — is
// checkpointed into the coordinator's store under the same node keys the
// in-process runner writes. On cancellation it returns the partial dataset
// with an error wrapping ctx.Err(), exactly like the in-process path.
func (c *Client) runSweepFleet(ctx context.Context, ne Experiment, watch Observer) (*Result, error) {
	appNames := ne.Apps
	if appNames == nil {
		for _, a := range apps.All() {
			appNames = append(appNames, a.Name)
		}
		sort.Strings(appNames)
	}
	indices := ne.PointIndices
	if indices == nil {
		indices = make([]int, PointCount())
		for i := range indices {
			indices[i] = i
		}
	}
	grid := tableIGrid()
	// keyOf is memoized: the store pre-check and the shard planner both ask
	// for every key, and each derivation is a canonical-JSON marshal + hash.
	// Only runSweepFleet's goroutine calls it, so a plain map suffices.
	keyMemo := make(map[string]string, len(appNames)*len(indices))
	keyOf := func(app string, i int) string {
		mk := app + "\x00" + strconv.Itoa(i)
		if k, ok := keyMemo[mk]; ok {
			return k
		}
		k := nodeKey(ne, app, nil, archOfPoint(grid[i]))
		keyMemo[mk] = k
		return k
	}

	if err := c.acquire(ctx); err != nil {
		return nil, err
	}
	defer c.release()

	// Serialized observer delivery and shared result assembly.
	total := len(appNames) * len(indices)
	var resMu sync.Mutex
	var collected []Measurement
	var done, cachedCount int
	var firstErr error
	record := func(ms []Measurement, cached bool, err error) {
		resMu.Lock()
		collected = append(collected, ms...)
		done += len(ms)
		if cached {
			cachedCount += len(ms)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		// Both callbacks run under the lock: the Observer contract promises
		// each is serialized with itself.
		if watch.Measurement != nil {
			for _, m := range ms {
				watch.Measurement(m)
			}
		}
		if watch.Progress != nil && len(ms) > 0 {
			watch.Progress(done, total, cachedCount)
		}
		resMu.Unlock()
	}

	// Store pre-check: known points are served locally and never dispatched.
	_, planSpan := obs.StartSpan(ctx, "fleet.plan",
		obs.AInt("apps", len(appNames)), obs.AInt("points", total))
	remaining := map[string][]int{}
	for _, app := range appNames {
		var hits []Measurement
		for _, i := range indices {
			if c.st != nil && !ne.Recompute {
				if m, ok := c.st.Get(keyOf(app, i)); ok {
					c.storeHits.Add(1)
					hits = append(hits, m)
					continue
				}
				c.storeMisses.Add(1)
			}
			remaining[app] = append(remaining[app], i)
		}
		record(hits, true, nil)
	}

	shards := planShards(appNames, remaining, keyOf)
	planSpan.SetAttr("shards", fmt.Sprint(len(shards)))
	planSpan.End()
	if len(shards) > 0 {
		// redo is buffered for every shard, so handing one to the local
		// pool never blocks a worker loop.
		redo := make(chan *shardJob, len(shards))
		complete := func(j *shardJob, ms []Measurement, err error) {
			var putErr error
			if err == nil && c.st != nil {
				for _, m := range ms {
					if e := c.st.Put(j.keys[m.Arch.Label()], m); e != nil && putErr == nil {
						putErr = e
					}
				}
			}
			record(ms, false, errors.Join(err, putErr))
		}

		// Probe worker capacities concurrently; an unreachable worker takes
		// no shards this run (its would-be shards just spread elsewhere).
		type probed struct {
			base string
			n    int
		}
		answers := make(chan probed, len(c.fleet.bases))
		for _, base := range c.fleet.bases {
			go func() {
				n, _ := c.fleet.capacity(ctx, base) // 0 when it failed
				answers <- probed{base, n}
			}()
		}
		slots := map[string]int{} // reachable workers only
		for range c.fleet.bases {
			if p := <-answers; p.n > 0 {
				slots[p.base] = p.n
			}
		}

		// The fleet ring pins each shard, once, to the reachable worker it
		// ranks first for the shard's annotation key, so a group's /simulate
		// traffic, artifact cache and shard execution converge on one
		// replica. With no reachable worker every shard runs locally.
		for _, j := range shards {
			if len(slots) == 0 {
				redo <- j
			} else if key := shardKey(ne, j); key != "" {
				j.prefer = c.fleet.fw.Ring.Pick(key, func(m string) bool { return slots[m] > 0 })
			}
		}
		pending := &pendingShards{items: shards}

		// dispatchOne gives one shard its one attempt at a worker; on any
		// failure — transport, timeout, a non-200 status, a reply over its
		// bound or one validateShardReply refuses — the shard goes to the
		// local pool.
		dispatchOne := func(base string, j *shardJob) {
			dctx, dspan := obs.StartSpan(ctx, "fleet.dispatch",
				obs.A("worker", base), obs.A("app", j.app),
				obs.AInt("points", len(j.indices)))
			defer dspan.End()
			dispatchStart := time.Now()
			ms, err := c.fleet.postShard(dctx, base, shardExperiment(ne, j))
			if err == nil {
				err = j.validateShardReply(ms)
			}
			if err != nil {
				dspan.SetAttr("outcome", "error")
				if ctx.Err() != nil {
					return
				}
				c.redispatched.Add(1)
				// Zero-length marker span: makes every fallback visible in
				// the trace timeline at the moment it was taken.
				_, sp := obs.StartSpan(ctx, "fleet.redispatch",
					obs.A("app", j.app), obs.AInt("points", len(j.indices)))
				sp.End()
				redo <- j
				return
			}
			observeShard("remote", dispatchStart)
			dspan.SetAttr("outcome", "ok")
			c.remote.Add(int64(len(ms)))
			complete(j, ms, nil)
		}

		// Every advertised slot of every reachable worker runs one loop: take
		// the next shard — this worker's own first, then anybody's, which is
		// stealing from a slower peer, whose worker then builds the
		// group's artifacts itself — and dispatch it. When the last loop
		// ends no shard can fail any more, and the redo queue closes.
		var slotLoops sync.WaitGroup
		for _, base := range c.fleet.bases {
			for s := 0; s < slots[base]; s++ {
				slotLoops.Add(1)
				go func() {
					defer slotLoops.Done()
					for ctx.Err() == nil {
						j := pending.take(base)
						if j == nil {
							return
						}
						dispatchOne(base, j)
					}
				}()
			}
		}
		go func() {
			slotLoops.Wait()
			close(redo)
		}()

		// The local pool runs every shard handed to it, each once.
		nLocal := c.opts.SweepWorkers
		if nLocal <= 0 {
			nLocal = runtime.GOMAXPROCS(0)
		}
		var local sync.WaitGroup
		for w := 0; w < nLocal; w++ {
			local.Add(1)
			go func() {
				defer local.Done()
				for j := range redo {
					if ctx.Err() != nil {
						continue // drain: the sweep is canceled
					}
					lctx, lspan := obs.StartSpan(ctx, "fleet.local-shard",
						obs.A("app", j.app), obs.AInt("points", len(j.indices)))
					localStart := time.Now()
					ms, err := c.runShardLocal(lctx, ne, j)
					if err != nil {
						lspan.SetAttr("outcome", "error")
						lspan.End()
						if ctx.Err() == nil {
							complete(j, nil, err) // local execution cannot be retried
						}
						continue
					}
					observeShard("local", localStart)
					lspan.SetAttr("outcome", "ok")
					lspan.End()
					complete(j, ms, nil)
				}
			}()
		}
		local.Wait()
	}

	resMu.Lock()
	ms := collected
	err := firstErr
	resMu.Unlock()
	_, mergeSpan := obs.StartSpan(ctx, "fleet.merge", obs.AInt("measurements", len(ms)))
	dse.SortMeasurements(ms)
	mergeSpan.End()
	res := &Result{Kind: KindSweep, Sweep: &Sweep{Measurements: ms}}
	if cerr := ctx.Err(); cerr != nil {
		return res, fmt.Errorf("musa: sweep canceled with %d of the measurements: %w",
			len(ms), errors.Join(cerr, err))
	}
	return res, err
}
