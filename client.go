package musa

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"musa/internal/apps"
	"musa/internal/core"
	"musa/internal/dse"
	"musa/internal/net"
	"musa/internal/obs"
	"musa/internal/ring"
	"musa/internal/store"
	"musa/internal/store/lsm"
)

// ClientOptions configures a Client. Zero values mean: no persistent store,
// GOMAXPROCS sweep workers, 2 concurrent jobs, package-default fidelity,
// seed 1, cluster replay at 64 and 256 ranks against the "mn4" network,
// in-process execution (no fleet workers).
type ClientOptions struct {
	// CacheDir, if non-empty, opens the content-addressed result store
	// there: node and sweep measurements are checkpointed as they complete
	// and repeated experiments become cache hits. The Client owns the
	// store; Close releases it.
	CacheDir string
	// LRUEntries bounds the store's in-memory front (0 = store default).
	LRUEntries int
	// StoreReadOnly opens the result store read-only: no writer lock is
	// taken, so the handle shares the directory with a live writer in
	// another process and follows the segments it publishes. Freshly
	// computed measurements stay in the in-memory front instead of being
	// checkpointed. Lets a warm serve replica read a store a sweep writes.
	StoreReadOnly bool
	// ArtifactCache is the persistent artifact-cache directory: sweep
	// intermediates (annotated samples, DRAM latency models, burst traces)
	// are cached there by content address and reused across runs and
	// processes — a warm run is byte-identical to a cold one, just faster.
	// Empty derives "<CacheDir>/artifacts" when CacheDir is set; without a
	// CacheDir the artifact cache is in-memory only (still shared across
	// this client's requests). Unlike the result store, the directory may
	// be shared between processes.
	ArtifactCache string
	// NoArtifacts disables the artifact cache entirely: every run rebuilds
	// its intermediates from scratch (the cold path, kept for benchmarks
	// and A/B comparisons).
	NoArtifacts bool
	// SweepWorkers bounds dse.Run parallelism inside one job
	// (0 = GOMAXPROCS).
	SweepWorkers int
	// MaxJobs bounds concurrently executing simulation jobs across all
	// requests (0 = 2). Requests beyond the bound queue.
	MaxJobs int

	// Workers lists remote `musa serve` base URLs (e.g. "http://h1:8080").
	// When non-empty, sweep experiments are split into per-annotation-group
	// shards and dispatched across the fleet over the /shard endpoint, with
	// the local process as the retry/hedge pool; all other kinds, and sweeps
	// over client-registered custom applications, still run in process. The
	// merged dataset is byte-identical to the in-process run.
	Workers []string
	// ShardTimeout bounds one remote shard request; a shard that times out
	// is re-dispatched onto the local pool (0 = 10m, negative = unbounded).
	ShardTimeout time.Duration
	// HedgeAfter, if positive, re-dispatches a still-running remote shard
	// onto the local pool after this long, and lets the local pool start
	// draining still-queued shards after the same delay; the first result
	// per shard wins and the merged dataset still holds exactly one
	// measurement per point.
	HedgeAfter time.Duration
	// Ring, when set, is the serve tier's replica membership. A coordinator
	// with Workers dispatches each shard to the ring owner of its
	// annotation-group key (instead of any free worker), so identical sweeps
	// from many coordinators coalesce on the same replicas. serve handlers
	// use the ring for /simulate ownership routing, by the same key
	// (RouteKey).
	Ring *Ring

	// SampleInstrs / WarmupInstrs / Seed are applied to experiments that
	// leave the corresponding field zero.
	SampleInstrs int64
	WarmupInstrs int64
	Seed         uint64
	// ReplayRanks / NoReplay / Network are the default replay configuration
	// of node and sweep experiments that do not set their own.
	ReplayRanks []int
	NoReplay    bool
	Network     string
}

// ClientStats counts what a Client did since construction.
type ClientStats struct {
	// Requests is the number of experiments run.
	Requests int64
	// StoreHits counts measurements served from the result store.
	StoreHits int64
	// StoreMisses counts result-store lookups that found nothing (the
	// dominant case of a cold sweep; at serve scale the hit/miss ratio is
	// the cache's health metric).
	StoreMisses int64
	// Coalesced counts node experiments that piggybacked on an identical
	// in-flight computation instead of simulating again.
	Coalesced int64
	// Simulated counts measurements actually computed in this process.
	Simulated int64
	// Remote counts measurements computed by fleet workers on behalf of
	// this client's sweeps.
	Remote int64
	// Redispatched counts sweep shards re-dispatched onto the local pool
	// after a fleet worker failed, timed out or was hedged.
	Redispatched int64
	// ArtifactsPushed counts artifacts this coordinator shipped to fleet
	// workers ahead of shard dispatch.
	ArtifactsPushed int64
	// ShardRetries counts 429-shed shard dispatches retried against a
	// worker (after honoring its Retry-After) before any local fallback.
	ShardRetries int64
	// PeerArtifactsFetched counted artifacts pulled from ring peers.
	//
	// Deprecated: always zero, since ring replicas no longer move
	// artifacts between each other. The field goes with the benchmark's
	// ring.peer_* metrics.
	PeerArtifactsFetched int64
	// PeerArtifactMisses counted artifact misses no ring peer could serve.
	//
	// Deprecated: always zero, as PeerArtifactsFetched.
	PeerArtifactMisses int64
	// PeerArtifactsReplicated counted artifacts pushed to their ring owners.
	//
	// Deprecated: always zero, as PeerArtifactsFetched.
	PeerArtifactsReplicated int64
}

// Measurement re-exports the sweep measurement: one (application,
// configuration) simulation outcome including the cluster replay metrics.
type Measurement = dse.Measurement

// ArtifactStats re-exports the artifact-cache counter snapshot (per-kind
// hit/miss/put counts, blob byte traffic, resident entry count).
type ArtifactStats = store.ArtifactStats

// SampleWindowStats re-exports the counters of the client's sample-window
// front (requests served from it, windows generated into it, resident bytes).
type SampleWindowStats = dse.SampleWindowStats

// ErrStoreBusy re-exports the result store's busy error: NewClient returns
// an error wrapping it when CacheDir is already open for writing by
// another process. Set StoreReadOnly to share a live writer's store.
var ErrStoreBusy = store.ErrStoreBusy

// Result is the outcome of one experiment; the field matching the
// experiment's Kind is set.
type Result struct {
	Kind Kind `json:"kind"`
	// Cached reports that a node measurement came from the result store or
	// an identical in-flight computation.
	Cached bool `json:"cached,omitempty"`

	// Measurement is the KindNode outcome.
	Measurement *Measurement `json:"measurement,omitempty"`
	// FullApp is the KindFullApp outcome.
	FullApp *FullAppResult `json:"fullApp,omitempty"`
	// RegionSpeedups (Fig. 2a, aligned with CoreCounts) and Scaling
	// (Fig. 2b) are the KindScaling outcome.
	RegionSpeedups []float64              `json:"regionSpeedups,omitempty"`
	Scaling        []FullAppScalingResult `json:"scaling,omitempty"`
	// Sweep is the KindSweep outcome. On cancellation it holds the partial
	// dataset accumulated so far.
	Sweep *Sweep `json:"sweep,omitempty"`
	// Unconventional is the KindUnconventional outcome.
	Unconventional []UnconventionalRow `json:"unconventional,omitempty"`
	// Optimize is the KindOptimize outcome. On cancellation it holds the
	// rung history completed so far.
	Optimize *OptimizeResult `json:"optimize,omitempty"`

	// reply is Measurement in its POST /simulate form when the result store's
	// front served it (shared with the front: read-only).
	reply []byte
}

// MeasurementJSON returns the KindNode measurement as POST /simulate nests
// it in its reply (store.ReplyForm). A result served by the result store's
// front hands out the bytes the front keeps, which the caller must not
// modify; any other result is encoded on the spot.
func (r *Result) MeasurementJSON() ([]byte, error) {
	if r.reply != nil {
		return r.reply, nil
	}
	if r.Measurement == nil {
		return nil, fmt.Errorf("musa: a %s result carries no measurement", r.Kind)
	}
	return store.ReplyForm(*r.Measurement)
}

// Observer receives streaming callbacks from Client.RunStream. All fields
// are optional. Each callback is serialized with itself (no two Progress
// calls, and no two Measurement calls, run concurrently), but different
// callbacks may overlap each other.
type Observer struct {
	// Progress receives (done, total, cached) measurement counts as a
	// sweep or optimize search advances (and a single 1/1 tick for node
	// experiments). For optimize experiments the counts are cumulative
	// probes across the whole fidelity ladder.
	Progress func(done, total, cached int)
	// Measurement receives each completed measurement of node, sweep and
	// optimize experiments, including store hits.
	Measurement func(m Measurement)
	// Rung receives each completed successive-halving rung of an optimize
	// experiment, in ladder order.
	Rung func(r RungSummary)
}

// call is one in-flight node computation that duplicate requests wait on.
type call struct {
	done chan struct{}
	m    Measurement
	err  error
}

// Client executes Experiments. It owns the optional result store, coalesces
// duplicate in-flight node experiments into single computations, and bounds
// concurrent simulation jobs with a worker pool. All methods are safe for
// concurrent use.
type Client struct {
	opts    ClientOptions
	st      *store.Store         // nil without CacheDir
	art     *store.ArtifactCache // nil with NoArtifacts
	network NetworkModel         // resolved default network
	sem     chan struct{}
	fleet   *fleet // nil without Workers
	// windows is the client-lifetime front of scalar sample windows every
	// run reads through (nil with NoArtifacts: each run keeps its own).
	windows *dse.SampleWindows
	// fw carries every request the client sends to another process. It is
	// over opts.Ring, or an empty ring: then nothing routes by key.
	fw *ring.Forwarder

	mu     sync.Mutex
	flight map[string]*call
	custom map[string]customApp

	// compHist is the registered compaction-duration histogram; the store's
	// OnCompaction hook feeds it. Atomic because compactions run on engine
	// goroutines while RegisterMetrics may swap registries.
	compHist atomic.Pointer[obs.Histogram]

	// optRungHist is the registered rung-duration histogram, fed by
	// runOptimize (same registry-swap pattern as compHist).
	optRungHist atomic.Pointer[obs.Histogram]

	requests, storeHits, storeMisses, coalesced, simulated atomic.Int64
	remote, redispatched, artifactsPushed, shardRetries    atomic.Int64
	optProbesCheap, optProbesFull                          atomic.Int64
}

// NewClient validates the options, opens the result store when CacheDir is
// set, and returns the client.
func NewClient(opts ClientOptions) (*Client, error) {
	name := opts.Network
	if name == "" {
		name = "mn4"
	}
	network, err := net.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadNetwork, err)
	}
	if opts.ReplayRanks != nil {
		if err := ValidateReplayRanks(opts.ReplayRanks); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadReplayRanks, err)
		}
	}
	if opts.NoArtifacts && opts.ArtifactCache != "" {
		// Silently ignoring the directory would let an operator believe
		// artifacts persist while every run rebuilds from scratch.
		return nil, errors.New("musa: conflicting options: NoArtifacts with an explicit ArtifactCache directory")
	}
	maxJobs := opts.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 2
	}
	c := &Client{
		opts:    opts,
		network: network,
		sem:     make(chan struct{}, maxJobs),
		flight:  map[string]*call{},
		custom:  map[string]customApp{},
	}
	rg := opts.Ring
	if rg == nil {
		rg = ring.New("", nil)
	}
	c.fw = &ring.Forwarder{Ring: rg, HTTP: artifactHTTP}
	if len(opts.Workers) > 0 {
		f, err := newFleet(opts.Workers, opts.ShardTimeout, opts.HedgeAfter)
		if err != nil {
			return nil, err
		}
		f.fw = c.fw
		c.fleet = f
	}
	if opts.CacheDir != "" {
		st, err := store.Open(opts.CacheDir, store.Options{
			LRUEntries: opts.LRUEntries,
			ReadOnly:   opts.StoreReadOnly,
			OnCompaction: func(seconds float64) {
				if h := c.compHist.Load(); h != nil {
					h.Observe(seconds)
				}
			},
		})
		if err != nil {
			return nil, err
		}
		c.st = st
	}
	if !opts.NoArtifacts {
		dir := opts.ArtifactCache
		if dir == "" && opts.CacheDir != "" {
			dir = filepath.Join(opts.CacheDir, "artifacts")
		}
		art, err := store.OpenArtifacts(dir)
		if err != nil {
			if c.st != nil {
				c.st.Close()
			}
			return nil, err
		}
		c.art = art
		c.windows = dse.NewSampleWindows()
	}
	return c, nil
}

// Close releases the result store (if any). The client must not be used
// afterwards.
func (c *Client) Close() error {
	if c.st == nil {
		return nil
	}
	return c.st.Close()
}

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Requests:        c.requests.Load(),
		StoreHits:       c.storeHits.Load(),
		StoreMisses:     c.storeMisses.Load(),
		Coalesced:       c.coalesced.Load(),
		Simulated:       c.simulated.Load(),
		Remote:          c.remote.Load(),
		Redispatched:    c.redispatched.Load(),
		ArtifactsPushed: c.artifactsPushed.Load(),
		ShardRetries:    c.shardRetries.Load(),
	}
}

// artifacts returns the client's artifact provider for dse.Options without
// producing a typed-nil interface when the cache is disabled.
func (c *Client) artifacts() dse.ArtifactProvider {
	if c.art == nil {
		return nil
	}
	return c.art
}

// ArtifactBlob returns the encoded artifact stored under key, byte for
// byte — the GET /artifact/{key} payload.
func (c *Client) ArtifactBlob(key string) ([]byte, bool) {
	if c.art == nil {
		return nil, false
	}
	return c.art.Blob(key)
}

// ArtifactPut validates and stores an encoded artifact received from
// outside (PUT /artifact/{key}, fleet coordinator pushes).
func (c *Client) ArtifactPut(key string, blob []byte) error {
	if c.art == nil {
		return errors.New("musa: artifact cache disabled")
	}
	return c.art.PutBlob(key, blob)
}

// RegisterApplication adds a custom application model to the client's
// registry: experiments can then name it in App/Apps. Built-in names cannot
// be shadowed. The profile participates in store keys by content, so two
// different profiles under the same name never collide in the cache.
func (c *Client) RegisterApplication(p Application) error {
	cp, err := NewApplication(p)
	if err != nil {
		return err
	}
	if apps.IsBuiltin(cp.Name) {
		return fmt.Errorf("%w: %q shadows a built-in application", ErrExperiment, cp.Name)
	}
	hash := dse.AppHash(cp)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.custom[cp.Name] = customApp{cp, hash}
	return nil
}

// customApp is a registered application: its profile and dse.AppHash of it.
type customApp struct {
	profile *Application
	hash    string
}

// resolveApp resolves built-ins first, then the client registry.
func (c *Client) resolveApp(name string) (*Application, error) {
	if a, err := apps.ByName(name); err == nil {
		return a, nil
	}
	if a := c.customProfile(name); a != nil {
		return a, nil
	}
	return nil, fmt.Errorf("musa: unknown application %q", name)
}

// knowsApp is resolveApp for validation: it builds no profile.
func (c *Client) knowsApp(name string) error {
	if apps.IsBuiltin(name) || c.customProfile(name) != nil {
		return nil
	}
	return fmt.Errorf("musa: unknown application %q", name)
}

// customProfile returns the registered profile when name is not a built-in
// (nil for built-ins) — the content embedded into store keys.
func (c *Client) customProfile(name string) *apps.Profile {
	if apps.IsBuiltin(name) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.custom[name].profile
}

// builtinHashes is dse.AppHash of every built-in application, by name:
// computed once per process.
var builtinHashes = sync.OnceValue(func() map[string]string {
	hashes := map[string]string{}
	for _, p := range apps.All() {
		hashes[p.Name] = dse.AppHash(p)
	}
	return hashes
})

// appHash returns dse.AppHash of a known application: a built-in's from
// builtinHashes, a registered profile's as RegisterApplication derived it.
func (c *Client) appHash(name string) string {
	if h, ok := builtinHashes()[name]; ok {
		return h
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.custom[name].hash
}

// fill applies the client defaults to an experiment before normalization.
// A nil ReplayRanks picks up the client's replay defaults; an explicit
// empty slice means node-only and stays that way (Normalize folds it into
// NoReplay).
func (c *Client) fill(e Experiment) Experiment {
	if e.Sample == 0 {
		e.Sample = c.opts.SampleInstrs
	}
	if e.Warmup == 0 {
		e.Warmup = c.opts.WarmupInstrs
	}
	if e.Seed == 0 {
		e.Seed = c.opts.Seed
	}
	kind := e.Kind
	if kind == "" {
		kind = KindNode
	}
	if e.Network == "" && kind != KindUnconventional {
		// Unconventional experiments take no network; injecting the client
		// default would fail their validation.
		e.Network = c.opts.Network
	}
	if (kind == KindNode || kind == KindSweep || kind == KindOptimize) &&
		e.ReplayRanks == nil && !e.NoReplay {
		if c.opts.NoReplay {
			e.NoReplay = true
		} else {
			e.ReplayRanks = c.opts.ReplayRanks // nil keeps the package default
		}
	}
	return e
}

// acquire takes a job slot, honoring cancellation while queued.
func (c *Client) acquire(ctx context.Context) error {
	select {
	case c.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Client) release() { <-c.sem }

// Run executes the experiment and returns its result. Requests are
// validated up front: all validation failures wrap ErrExperiment and the
// typed cause (ErrUnknownApp, ErrBadArch, ErrBadReplayRanks, ...), and no
// user input reaches a panicking simulation path. Canceling ctx aborts the
// run; a canceled sweep returns the partial dataset alongside an error
// wrapping context.Canceled.
func (c *Client) Run(ctx context.Context, e Experiment) (*Result, error) {
	return c.RunStream(ctx, e, Observer{})
}

// RunStream is Run with streaming callbacks: sweep progress and per-
// measurement notifications are delivered to watch while the experiment
// executes. The final Result is returned as from Run.
func (c *Client) RunStream(ctx context.Context, e Experiment, watch Observer) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ne, err := c.fill(e).normalize(c.knowsApp)
	if err != nil {
		return nil, err
	}
	c.requests.Add(1)
	// The root span of the request: under an HTTP handler it parents to the
	// request span (and, via X-Musa-Trace, to a coordinator's dispatch); on
	// a CLI it is the trace root covering the whole experiment.
	ctx, span := obs.StartSpan(ctx, "client.run", obs.A("kind", string(ne.Kind)))
	defer span.End()
	switch ne.Kind {
	case KindNode:
		return c.runNode(ctx, ne, watch)
	case KindFullApp:
		return c.runFullApp(ctx, ne)
	case KindScaling:
		return c.runScaling(ctx, ne)
	case KindSweep:
		return c.runSweep(ctx, ne, watch)
	case KindUnconventional:
		return c.runUnconventional(ctx, ne)
	case KindOptimize:
		return c.runOptimize(ctx, ne, watch)
	}
	return nil, fmt.Errorf("%w %q", ErrBadKind, ne.Kind) // unreachable after normalize
}

// runNode serves one measurement: store first, then single-flight
// coalescing of identical in-flight requests, then a one-point sweep under
// a job slot.
func (c *Client) runNode(ctx context.Context, ne Experiment, watch Observer) (*Result, error) {
	key := nodeKey(ne, ne.App, c.customProfile(ne.App), *ne.Arch)

	finish := func(m Measurement, cached bool, reply []byte) (*Result, error) {
		if watch.Measurement != nil {
			watch.Measurement(m)
		}
		if watch.Progress != nil {
			hits := 0
			if cached {
				hits = 1
			}
			watch.Progress(1, 1, hits)
		}
		return &Result{Kind: KindNode, Cached: cached, Measurement: &m, reply: reply}, nil
	}

	if c.st != nil && !ne.Recompute {
		if m, reply, ok := c.st.GetReply(key); ok {
			c.storeHits.Add(1)
			return finish(m, true, reply)
		}
		c.storeMisses.Add(1)
	}

	// Past the store the request simulates, and only that needs the profile
	// itself: a hit was answered from the name.
	app, err := c.resolveApp(ne.App)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownApp, err)
	}

	// Single flight: the first request under a key computes; duplicates
	// arriving before it finishes wait on the same call.
	c.mu.Lock()
	if call, ok := c.flight[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-call.done:
			if call.err != nil {
				return nil, call.err
			}
			return finish(call.m, true, nil)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{})}
	c.flight[key] = cl
	c.mu.Unlock()

	// A leader that finished between this request's store lookup and its
	// flight lookup stored its measurement before it left the flight map,
	// so a second lookup, made once nobody else can lead, finds it; without
	// it the key would be simulated twice.
	stored := false
	if c.st != nil && !ne.Recompute {
		cl.m, stored = c.st.Get(key)
	}
	if !stored {
		// The leader computes under a context detached from its own request:
		// coalesced waiters (and the store) want the result even if the
		// leader disconnects, and a canceled leader must not hand its ctx
		// error to waiters whose contexts are live.
		cl.m, cl.err = c.simulateOne(context.WithoutCancel(ctx), app, ne, key)
	}
	c.mu.Lock()
	delete(c.flight, key)
	c.mu.Unlock()
	close(cl.done)
	if cl.err != nil {
		return nil, cl.err
	}
	return finish(cl.m, stored, nil)
}

// runOptions assembles the runner options of one run of a normalized
// experiment: its fidelity, seed and replay configuration, the client's
// artifact cache and sample windows, one worker.
func (c *Client) runOptions(ne Experiment, selected []*apps.Profile, points []dse.ArchPoint) dse.Options {
	rc := dse.ReplayConfig{Disable: ne.NoReplay, Ranks: ne.ReplayRanks}
	if !rc.Disable && ne.Network != "" {
		m, _ := net.ByName(ne.Network) // normalized: resolves
		rc.Network = m
	}
	return dse.Options{
		Apps:          selected,
		Points:        points,
		SampleInstrs:  ne.Sample,
		WarmupInstrs:  ne.Warmup,
		Workers:       1,
		Seed:          ne.Seed,
		Replay:        rc.Normalized(),
		Artifacts:     c.artifacts(),
		SampleWindows: c.windows,
	}
}

// simulateOne runs a one-point sweep under a job slot and checkpoints the
// result.
func (c *Client) simulateOne(ctx context.Context, app *Application, ne Experiment, key string) (Measurement, error) {
	if err := c.acquire(ctx); err != nil {
		return Measurement{}, err
	}
	defer c.release()
	p, err := ne.Arch.toPoint()
	if err != nil {
		return Measurement{}, err // unreachable: ne is normalized
	}
	d := dse.Run(ctx, c.runOptions(ne, []*apps.Profile{app}, []dse.ArchPoint{p}))
	if err := ctx.Err(); err != nil {
		return Measurement{}, err
	}
	if len(d.Measurements) != 1 {
		return Measurement{}, fmt.Errorf("musa: expected 1 measurement, got %d", len(d.Measurements))
	}
	c.simulated.Add(1)
	m := d.Measurements[0]
	if c.st != nil {
		if err := c.st.Put(key, m); err != nil {
			return m, err
		}
	}
	return m, nil
}

// runSweep executes a (possibly restricted) Table I sweep with incremental
// store checkpointing. On cancellation it returns the partial dataset and
// an error wrapping context.Canceled, so callers keep what was computed
// and a repeated run resumes from the checkpoint.
func (c *Client) runSweep(ctx context.Context, ne Experiment, watch Observer) (*Result, error) {
	// A configured fleet takes over built-in-application sweeps; custom
	// applications are registered only on this client, so the workers could
	// not resolve them — those sweeps stay in process.
	if c.fleet != nil && c.fleetEligible(ne) {
		return c.runSweepFleet(ctx, ne, watch)
	}
	var selected []*apps.Profile
	for _, name := range ne.Apps {
		a, err := c.resolveApp(name)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnknownApp, err)
		}
		selected = append(selected, a)
	}
	var points []dse.ArchPoint
	if ne.PointIndices != nil {
		grid := tableIGrid()
		for _, i := range ne.PointIndices {
			points = append(points, grid[i]) // normalized: in range
		}
	}

	if err := c.acquire(ctx); err != nil {
		return nil, err
	}
	defer c.release()

	opts := c.runOptions(ne, selected, points)
	opts.Workers = c.opts.SweepWorkers

	var cached atomic.Int64
	flush := func() error { return nil }
	if c.st != nil {
		keyOf := func(app string, p dse.ArchPoint) string {
			return nodeKey(ne, app, c.customProfile(app), archOfPoint(p))
		}
		flush = store.Bind(c.st, keyOf, &opts, ne.Recompute)
	}
	// Decorate the store wiring with the client counters and the observer.
	// The runner invokes Lookup/OnMeasurement concurrently from workers;
	// the Observer contract promises serialized callbacks, so the
	// Measurement delivery takes a lock.
	var obsMu sync.Mutex
	deliver := func(m Measurement) {
		if watch.Measurement == nil {
			return
		}
		obsMu.Lock()
		watch.Measurement(m)
		obsMu.Unlock()
	}
	if lookup := opts.Lookup; lookup != nil {
		opts.Lookup = func(app string, p dse.ArchPoint) (Measurement, bool) {
			m, ok := lookup(app, p)
			if ok {
				cached.Add(1)
				c.storeHits.Add(1)
				deliver(m)
			} else {
				c.storeMisses.Add(1)
			}
			return m, ok
		}
	}
	checkpoint := opts.OnMeasurement
	opts.OnMeasurement = func(m Measurement) {
		c.simulated.Add(1)
		if checkpoint != nil {
			checkpoint(m)
		}
		deliver(m)
	}
	if watch.Progress != nil {
		opts.Progress = func(done, total int) {
			watch.Progress(done, total, int(cached.Load()))
		}
	}

	d := dse.Run(ctx, opts)
	res := &Result{Kind: KindSweep, Sweep: d}
	if err := ctx.Err(); err != nil {
		// A checkpoint write failure must not mask the cancellation (or
		// vice versa): callers branch on errors.Is(err, context.Canceled)
		// to treat the dataset as a resumable partial.
		return res, fmt.Errorf("musa: sweep canceled with %d of the measurements: %w",
			len(d.Measurements), errors.Join(err, flush()))
	}
	return res, flush()
}

// runFullApp runs detailed mode end to end under a job slot.
func (c *Client) runFullApp(ctx context.Context, ne Experiment) (*Result, error) {
	app, err := c.resolveApp(ne.App)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownApp, err)
	}
	if err := c.acquire(ctx); err != nil {
		return nil, err
	}
	defer c.release()
	p, _ := ne.Arch.toPoint() // normalized: valid
	model, _ := net.ByName(ne.Network)
	cfg := p.NodeConfig(ne.Sample, ne.Warmup, ne.Seed)
	full, err := core.DetailedFullAppCtx(ctx, app, cfg, ne.Ranks, model)
	if err != nil {
		return nil, fmt.Errorf("musa: full-app run canceled: %w", err)
	}
	c.simulated.Add(1)
	return &Result{Kind: KindFullApp, FullApp: &full}, nil
}

// runScaling runs the burst-mode §V-A analysis under a job slot: the
// hardware-agnostic region speedups and the whole-application scaling
// including MPI overheads.
func (c *Client) runScaling(ctx context.Context, ne Experiment) (*Result, error) {
	app, err := c.resolveApp(ne.App)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownApp, err)
	}
	if err := c.acquire(ctx); err != nil {
		return nil, err
	}
	defer c.release()
	model, _ := net.ByName(ne.Network)
	bopts := core.DefaultBurstOptions()
	bopts.Seed = ne.Seed
	region := core.RegionScaling(app, ne.CoreCounts, bopts)
	full, err := core.FullAppScalingCtx(ctx, app, ne.Ranks, ne.CoreCounts, model, bopts)
	if err != nil {
		return nil, fmt.Errorf("musa: scaling run canceled: %w", err)
	}
	c.simulated.Add(1)
	return &Result{Kind: KindScaling, RegionSpeedups: region, Scaling: full}, nil
}

// RegisterMetrics re-registers the client's counters — and its store and
// artifact caches' — as scrape-time metrics in reg (nil = the process
// default registry), so one GET /metrics (or one -metrics dump) sees the
// whole pipeline. Registering a second client under the same registry
// replaces the first: one process scrapes one client.
func (c *Client) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.DefaultRegistry()
	}
	stat := func(f func(ClientStats) int64) func() float64 {
		return func() float64 { return float64(f(c.Stats())) }
	}
	reg.CounterFunc("musa_client_requests_total", "Experiments run by the client.",
		stat(func(s ClientStats) int64 { return s.Requests }))
	reg.CounterFunc("musa_client_simulated_total", "Measurements computed in this process.",
		stat(func(s ClientStats) int64 { return s.Simulated }))
	reg.CounterFunc("musa_client_coalesced_total", "Node experiments coalesced onto identical in-flight computations.",
		stat(func(s ClientStats) int64 { return s.Coalesced }))
	reg.CounterFunc("musa_client_remote_total", "Measurements computed by fleet workers.",
		stat(func(s ClientStats) int64 { return s.Remote }))
	reg.CounterFunc("musa_client_redispatched_total", "Fleet shards re-dispatched onto the local pool.",
		stat(func(s ClientStats) int64 { return s.Redispatched }))
	reg.CounterFunc("musa_client_artifacts_pushed_total", "Artifacts shipped to fleet workers ahead of shards.",
		stat(func(s ClientStats) int64 { return s.ArtifactsPushed }))
	reg.CounterFunc("musa_client_shard_retries_total", "429-shed shard dispatches retried after Retry-After.",
		stat(func(s ClientStats) int64 { return s.ShardRetries }))
	reg.GaugeFunc("musa_jobs_in_flight", "Simulation jobs currently holding a pool slot.",
		func() float64 { return float64(len(c.sem)) })
	reg.GaugeFunc("musa_jobs_max", "Concurrent-job bound of the pool (the /capacity advertisement).",
		func() float64 { return float64(cap(c.sem)) })

	reg.CounterFunc("musa_opt_probes_total", "Optimize-search probes dispatched, by fidelity rung class.",
		func() float64 { return float64(c.optProbesCheap.Load()) }, obs.L("fidelity", "cheap"))
	reg.CounterFunc("musa_opt_probes_total", "Optimize-search probes dispatched, by fidelity rung class.",
		func() float64 { return float64(c.optProbesFull.Load()) }, obs.L("fidelity", "full"))
	c.optRungHist.Store(reg.Histogram("musa_opt_rung_seconds",
		"Wall time of each completed successive-halving rung.", obs.DurationBuckets()))

	reg.CounterFunc("musa_store_hits_total", "Measurements served from the result store.",
		stat(func(s ClientStats) int64 { return s.StoreHits }))
	reg.CounterFunc("musa_store_misses_total", "Result-store lookups that found nothing.",
		stat(func(s ClientStats) int64 { return s.StoreMisses }))
	reg.GaugeFunc("musa_store_entries", "Measurements in the result store.",
		func() float64 { return float64(c.storeSnapshot().Len) })
	reg.CounterFunc("musa_store_front_reply_builds_total", "Reply forms the store front encoded (node requests served from the store reuse them).",
		func() float64 { return float64(c.storeSnapshot().Front.ReplyBuilds) })
	reg.GaugeFunc("musa_store_front_reply_bytes", "Reply-form bytes resident in the store front.",
		func() float64 { return float64(c.storeSnapshot().Front.ReplyBytes) })

	// LSM engine internals: memtable occupancy, segment shape, bloom-filter
	// effectiveness, and maintenance activity. All read the engine's counter
	// snapshot at scrape time; zero without a CacheDir.
	eng := func(f func(lsm.Stats) float64) func() float64 {
		return func() float64 { return f(c.storeSnapshot().Engine) }
	}
	reg.GaugeFunc("musa_lsm_memtable_bytes", "Payload bytes buffered in the engine memtable.",
		eng(func(s lsm.Stats) float64 { return float64(s.MemtableBytes) }))
	reg.GaugeFunc("musa_lsm_memtable_keys", "Keys buffered in the engine memtable.",
		eng(func(s lsm.Stats) float64 { return float64(s.MemtableKeys) }))
	reg.GaugeFunc("musa_lsm_segment_bytes", "Total bytes across live segment files.",
		eng(func(s lsm.Stats) float64 { return float64(s.SegmentBytes) }))
	// Size tiers are log4 of segment bytes over 1 MiB; tier 7 covers
	// everything beyond 16 GiB, far past any store this models.
	for tier := 0; tier <= 7; tier++ {
		t := tier
		reg.GaugeFunc("musa_lsm_segments", "Live segments by size tier.",
			eng(func(s lsm.Stats) float64 { return float64(s.SegmentsPerTier[t]) }),
			obs.L("tier", fmt.Sprintf("%d", t)))
	}
	reg.CounterFunc("musa_lsm_bloom_checks_total", "Per-segment bloom filter probes.",
		eng(func(s lsm.Stats) float64 { return float64(s.BloomChecks) }))
	reg.CounterFunc("musa_lsm_bloom_rejects_total", "Bloom probes that skipped a segment without I/O.",
		eng(func(s lsm.Stats) float64 { return float64(s.BloomRejects) }))
	reg.CounterFunc("musa_lsm_bloom_false_positives_total", "Bloom passes that paid a block read and found nothing.",
		eng(func(s lsm.Stats) float64 { return float64(s.BloomFalsePositives) }))
	reg.GaugeFunc("musa_lsm_bloom_fp_rate", "Observed bloom false-positive rate (false positives over checks).",
		eng(func(s lsm.Stats) float64 {
			if s.BloomChecks == 0 {
				return 0
			}
			return float64(s.BloomFalsePositives) / float64(s.BloomChecks)
		}))
	reg.CounterFunc("musa_lsm_segment_reads_total", "Segment data-block reads (one pread + decompress each).",
		eng(func(s lsm.Stats) float64 { return float64(s.SegmentReads) }))
	reg.CounterFunc("musa_lsm_block_cache_hits_total", "Point reads served an inflated block from the cache.",
		eng(func(s lsm.Stats) float64 { return float64(s.BlockCacheHits) }))
	reg.CounterFunc("musa_lsm_block_cache_misses_total", "Point reads that had to pread and inflate a block.",
		eng(func(s lsm.Stats) float64 { return float64(s.BlockCacheMiss) }))
	reg.GaugeFunc("musa_lsm_block_cache_bytes", "Inflated block bytes resident in the cache.",
		eng(func(s lsm.Stats) float64 { return float64(s.BlockCacheBytes) }))
	reg.CounterFunc("musa_lsm_flushes_total", "Memtable flushes to segment files.",
		eng(func(s lsm.Stats) float64 { return float64(s.Flushes) }))
	reg.CounterFunc("musa_lsm_compactions_total", "Completed segment compactions.",
		eng(func(s lsm.Stats) float64 { return float64(s.Compactions) }))
	reg.CounterFunc("musa_lsm_wal_bytes_total", "Bytes appended to the write-ahead log.",
		eng(func(s lsm.Stats) float64 { return float64(s.WALBytes) }))
	c.compHist.Store(reg.Histogram("musa_lsm_compaction_seconds",
		"Duration of each segment compaction.", obs.DurationBuckets()))

	kinds := []struct {
		kind string
		get  func(ArtifactStats) store.ArtifactKindStats
	}{
		{string(dse.ArtifactHitRates), func(s ArtifactStats) store.ArtifactKindStats { return s.HitRates }},
		{string(dse.ArtifactLatencyModel), func(s ArtifactStats) store.ArtifactKindStats { return s.LatencyModels }},
		{string(dse.ArtifactBurst), func(s ArtifactStats) store.ArtifactKindStats { return s.Bursts }},
	}
	for _, k := range kinds {
		get := k.get
		reg.CounterFunc("musa_artifact_hits_total", "Artifact-cache hits by kind.",
			func() float64 { return float64(get(c.artifactsSnapshot().Stats).Hits) }, obs.L("kind", k.kind))
		reg.CounterFunc("musa_artifact_misses_total", "Artifact-cache misses by kind.",
			func() float64 { return float64(get(c.artifactsSnapshot().Stats).Misses) }, obs.L("kind", k.kind))
		reg.CounterFunc("musa_artifact_puts_total", "Artifacts stored by kind.",
			func() float64 { return float64(get(c.artifactsSnapshot().Stats).Puts) }, obs.L("kind", k.kind))
	}
	reg.CounterFunc("musa_artifact_bytes_total", "Encoded artifact blob traffic.",
		func() float64 { return float64(c.artifactsSnapshot().Stats.BytesRead) }, obs.L("direction", "read"))
	reg.CounterFunc("musa_artifact_bytes_total", "Encoded artifact blob traffic.",
		func() float64 { return float64(c.artifactsSnapshot().Stats.BytesWritten) }, obs.L("direction", "written"))
	reg.GaugeFunc("musa_artifact_entries", "Distinct artifacts held by the cache.",
		func() float64 { return float64(c.artifactsSnapshot().Stats.Entries) })

	// The client-lifetime front of scalar sample windows (all zero with
	// NoArtifacts: each run then keeps its own windows).
	reg.CounterFunc("musa_dse_sample_windows_total", "Scalar sample-window requests by where the window came from.",
		func() float64 { return float64(c.windows.Stats().Front) }, obs.L("source", "front"))
	reg.CounterFunc("musa_dse_sample_windows_total", "Scalar sample-window requests by where the window came from.",
		func() float64 { return float64(c.windows.Stats().Generated) }, obs.L("source", "generated"))
	reg.GaugeFunc("musa_dse_sample_window_bytes", "Scalar sample windows resident in the client's front.",
		func() float64 { return float64(c.windows.Stats().ResidentBytes) })
}

// runUnconventional simulates the Table II configurations under a job slot.
func (c *Client) runUnconventional(ctx context.Context, ne Experiment) (*Result, error) {
	if err := c.acquire(ctx); err != nil {
		return nil, err
	}
	defer c.release()
	rows := dse.Unconventional(ne.Sample, ne.Warmup, ne.Seed)
	c.simulated.Add(1)
	return &Result{Kind: KindUnconventional, Unconventional: rows}, nil
}
