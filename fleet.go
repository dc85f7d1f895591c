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
	"sync/atomic"
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
// produces. The local process is the retry and hedge pool: a shard whose
// worker fails, times out or runs past HedgeAfter is re-dispatched in
// process exactly once, and the first result per shard wins, so the merged
// dataset holds exactly one measurement per point either way.

// ErrBadWorker reports an unusable fleet worker URL in ClientOptions.
var ErrBadWorker = errors.New("musa: bad fleet worker URL")

// observeShard records one shard execution into the fleet shard-duration
// histogram. path distinguishes the remote dispatch from the local
// retry/hedge pool, so a dashboard can tell worker latency from fallback
// latency.
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
	// maxRetryAfterWait caps how long a dispatch slot honors a worker's
	// Retry-After hint before giving the shard to the local pool instead: a
	// worker advertising a multi-minute backoff is effectively down for this
	// shard.
	maxRetryAfterWait = 30 * time.Second
)

// retryAfterError reports a worker shedding load with 429 + Retry-After.
// Unlike a transport failure or a 5xx, this is the worker explicitly asking
// to be retried — the dispatch loop honors the hint with one bounded wait
// before falling back to the local pool.
type retryAfterError struct {
	base  string
	after time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("musa: %s/shard: 429 Too Many Requests (retry after %s)", e.base, e.after)
}

// fleetHTTP carries the fleet traffic — capacity probes and shards — of
// every client in the process.
var fleetHTTP = &http.Client{}

// jsonHeader is the header of every JSON body a client sends. Read-only.
var jsonHeader = http.Header{"Content-Type": {"application/json"}}

// fleet is the validated remote-worker configuration of a Client.
type fleet struct {
	bases      []string // normalized base URLs, no trailing slash
	timeout    time.Duration
	hedgeAfter time.Duration
	fw         *ring.Forwarder // the owning client's
}

// newFleet validates the worker base URLs (http/https with a host) and
// normalizes the dispatch knobs. A worker listed twice, with or without a
// trailing slash, is one worker: the dispatch loop runs its advertised
// capacity once.
func newFleet(workers []string, shardTimeout, hedgeAfter time.Duration) (*fleet, error) {
	f := &fleet{timeout: shardTimeout, hedgeAfter: hedgeAfter}
	if f.timeout == 0 {
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
// measurements. The request is bounded by the fleet's shard timeout, and
// the forwarder stamps it with the dispatch span, so the worker's request
// span (and the whole worker-side tree under it) parents into this
// coordinator trace.
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
			if err = json.NewDecoder(resp.Body).Decode(&out); err != nil {
				err = fmt.Errorf("musa: %s/shard: %v", base, err)
			}
			ms = out.Measurements
		case http.StatusTooManyRequests:
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
			err = &retryAfterError{base: base, after: ring.ParseRetryAfter(resp.Header.Get("Retry-After"))}
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
	// prefer is the worker this shard is pinned to: with a ring, the first
	// reachable worker in the ring's order for the shard's annotation key,
	// so the whole tier executes a group where its artifacts live. Empty
	// without a ring, or when that order names no reachable worker: any
	// consumer takes the shard.
	prefer string

	// done guards completion: the first finisher (remote or the local
	// retry/hedge) records the shard's measurements, every later finisher
	// is dropped, so each point is measured exactly once in the merge.
	done atomic.Bool
	// redone guards re-dispatch: a shard is handed to the local pool at
	// most once, whether because its worker failed, timed out, or ran past
	// the hedge deadline.
	redone atomic.Bool
}

// pendingShards is the one dispatch structure: the planned shards nobody
// has taken yet, in plan order. A consumer takes its first preferred shard,
// else the first shard at all — which is a shared FIFO when nothing is
// pinned and work stealing when something is. Shards are only ever removed.
type pendingShards struct {
	mu    sync.Mutex
	items []*shardJob
}

// take removes and returns the next shard for worker ("" = the local pool,
// which no shard prefers); nil when none is left.
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

// shardKey is the key a -ring fleet pins a shard by: its annotation
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
// reply is treated like a failed worker and the shard is re-dispatched.
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

// runShardLocal executes one shard in process — the retry and hedge path.
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
		// dispatchCtx kills straggler requests (lost hedges, slower
		// duplicates) as soon as every shard has completed once.
		dispatchCtx, cancelDispatch := context.WithCancel(ctx)
		defer cancelDispatch()

		redo := make(chan *shardJob, len(shards))

		var remainingShards atomic.Int64
		remainingShards.Store(int64(len(shards)))
		allDone := make(chan struct{})
		complete := func(j *shardJob, ms []Measurement, err error) bool {
			if !j.done.CompareAndSwap(false, true) {
				return false
			}
			var putErr error
			if err == nil && c.st != nil {
				for _, m := range ms {
					if e := c.st.Put(j.keys[m.Arch.Label()], m); e != nil && putErr == nil {
						putErr = e
					}
				}
			}
			record(ms, false, errors.Join(err, putErr))
			if remainingShards.Add(-1) == 0 {
				close(allDone)
			}
			return true
		}
		// redispatch hands a shard to the local pool at most once; redo is
		// buffered for every shard, so this never blocks a worker loop.
		redispatch := func(j *shardJob) {
			if j.redone.CompareAndSwap(false, true) {
				c.redispatched.Add(1)
				// Zero-length marker span: makes every hedge/retry decision
				// visible in the trace timeline at the moment it was taken.
				_, sp := obs.StartSpan(ctx, "fleet.redispatch",
					obs.A("app", j.app), obs.AInt("points", len(j.indices)))
				sp.End()
				redo <- j
			}
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
				n, _ := c.fleet.capacity(dispatchCtx, base) // 0 when it failed
				answers <- probed{base, n}
			}()
		}
		slots := map[string]int{} // reachable workers only
		for range c.fleet.bases {
			if p := <-answers; p.n > 0 {
				slots[p.base] = p.n
			}
		}

		// With a ring over the worker fleet each shard is pinned, once, to
		// the reachable worker the ring ranks first for its annotation key,
		// so a group's /simulate traffic, artifact cache and shard execution
		// converge on one replica. Without a ring Pick finds nobody and every
		// shard is anybody's.
		for _, j := range shards {
			if key := shardKey(ne, j); key != "" {
				j.prefer = c.fw.Ring.Pick(key, func(m string) bool { return slots[m] > 0 })
			}
		}
		pending := &pendingShards{items: shards}

		// dispatchOne runs one shard against one worker: hedge timer, span,
		// the POST, and — when the worker sheds with 429 — one retry
		// honoring its Retry-After hint before the local fallback.
		dispatchOne := func(base string, j *shardJob) {
			// The hedge timer spans the Retry-After wait too, so an
			// overloaded worker's backoff never delays the sweep beyond the
			// hedge policy.
			var hedge *time.Timer
			if c.fleet.hedgeAfter > 0 {
				hedge = time.AfterFunc(c.fleet.hedgeAfter, func() { redispatch(j) })
			}
			dctx, dspan := obs.StartSpan(dispatchCtx, "fleet.dispatch",
				obs.A("worker", base), obs.A("app", j.app),
				obs.AInt("points", len(j.indices)))
			dispatchStart := time.Now()
			ms, err := c.fleet.postShard(dctx, base, shardExperiment(ne, j))
			var ra *retryAfterError
			if errors.As(err, &ra) && dispatchCtx.Err() == nil && !j.done.Load() {
				wait := min(ra.after, maxRetryAfterWait)
				dspan.SetAttr("retryAfter", wait.String())
				c.shardRetries.Add(1)
				select {
				case <-time.After(wait):
					ms, err = c.fleet.postShard(dctx, base, shardExperiment(ne, j))
				case <-dispatchCtx.Done():
				}
			}
			if hedge != nil {
				hedge.Stop()
			}
			if err == nil {
				err = j.validateShardReply(ms)
			}
			if err != nil {
				dspan.SetAttr("outcome", "error")
				dspan.End()
				if dispatchCtx.Err() != nil {
					return
				}
				redispatch(j)
				return
			}
			observeShard("remote", dispatchStart)
			if complete(j, ms, nil) {
				dspan.SetAttr("outcome", "won")
				c.remote.Add(int64(len(ms)))
			} else {
				dspan.SetAttr("outcome", "lost")
			}
			dspan.End()
		}

		// Every advertised slot of every reachable worker runs one loop: take
		// the next shard — this worker's own first, then anybody's, which is
		// stealing from a slower peer, whose worker then builds the
		// group's artifacts itself — and dispatch it.
		var wg sync.WaitGroup
		for _, base := range c.fleet.bases {
			for s := 0; s < slots[base]; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for dispatchCtx.Err() == nil {
						j := pending.take(base)
						if j == nil {
							return
						}
						dispatchOne(base, j)
					}
				}()
			}
		}

		// The local pool drains the redo queue; with no reachable worker it
		// is also the only taker of pending shards, so the sweep always
		// completes. With hedging enabled it additionally starts taking
		// pending shards after the hedge delay — otherwise shards still
		// waiting behind stalled workers would starve (hedge timers only
		// cover picked-up shards).
		nLocal := c.opts.SweepWorkers
		if nLocal <= 0 {
			nLocal = runtime.GOMAXPROCS(0)
		}
		for w := 0; w < nLocal; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				joined := len(slots) == 0
				var join <-chan time.Time
				if !joined && c.fleet.hedgeAfter > 0 {
					join = time.After(c.fleet.hedgeAfter)
				}
				for {
					var j *shardJob
					if joined {
						j = pending.take("")
					}
					if j == nil {
						select {
						case <-dispatchCtx.Done():
							return
						case <-allDone:
							return
						case <-join:
							joined, join = true, nil
							continue
						case j = <-redo:
						}
					}
					if j.done.Load() {
						continue // lost hedge: the remote reply already won
					}
					lctx, lspan := obs.StartSpan(dispatchCtx, "fleet.local-shard",
						obs.A("app", j.app), obs.AInt("points", len(j.indices)))
					localStart := time.Now()
					ms, err := c.runShardLocal(lctx, ne, j)
					if err != nil {
						lspan.SetAttr("outcome", "error")
						lspan.End()
						if dispatchCtx.Err() != nil {
							return
						}
						complete(j, nil, err) // local execution cannot be retried
						continue
					}
					observeShard("local", localStart)
					if complete(j, ms, nil) {
						lspan.SetAttr("outcome", "won")
					} else {
						lspan.SetAttr("outcome", "lost")
					}
					lspan.End()
				}
			}()
		}

		select {
		case <-allDone:
		case <-ctx.Done():
		}
		cancelDispatch()
		wg.Wait()
	}

	resMu.Lock()
	ms := collected
	err := firstErr
	resMu.Unlock()
	_, mergeSpan := obs.StartSpan(ctx, "fleet.merge", obs.AInt("measurements", len(ms)))
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].App != ms[j].App {
			return ms[i].App < ms[j].App
		}
		return ms[i].Arch.Label() < ms[j].Arch.Label()
	})
	mergeSpan.End()
	res := &Result{Kind: KindSweep, Sweep: &Sweep{Measurements: ms}}
	if cerr := ctx.Err(); cerr != nil {
		return res, fmt.Errorf("musa: sweep canceled with %d of the measurements: %w",
			len(ms), errors.Join(cerr, err))
	}
	return res, err
}
