package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"musa/internal/apps"
	"musa/internal/dram"
	"musa/internal/net"
	"musa/internal/node"
	"musa/internal/obs"
	"musa/internal/trace"
)

// This file is the artifact layer of the sweep runner: the expensive
// intermediates a sweep builds on the way to its measurements, addressed by
// content so they can be cached across runs and shared by the processes of
// one host through an artifact directory. The per-point pipeline is factored into staged
// sub-results, each keyed by exactly the inputs that can change it:
//
//	sample checkpoint (app, fidelity, seed)                      client-lifetime
//	fused trace       (app, vector width, fidelity, seed)        run-local, sample half
//	hit-rate table    (app, cores, vector width, cache, fidelity, seed)
//	DRAM curve        (app, channels, memory kind, seed)
//	burst trace       (app, rank count, seed)
//
// so an 864-point sweep computes each stage once per distinct stage-key
// instead of once per point. The paper's central economy is reuse (one
// traced execution feeds burst-mode scaling and detailed node simulation,
// §II); the artifact layer makes that reuse durable and process-spanning.
//
// No scalar window is kept. The tables an application lacks are built by one
// node.ColdPass, which streams the warm window through every width's fuser
// and caches and then the sample window through every width's sample fuse, a
// chunk at a time. What outlives the run is the generator's checkpoint at the
// start of the sample window, a few KB, in a SampleWindows front the client
// owns (in memory only, bounded by bytes, keyed by content): a run served
// from hit-rate tables restores it and streams the sample window into every
// width's fuser at once. Fused traces stay run-local: they are the
// bulkiest stage and the cheapest to rebuild per byte, so persisting them
// would spend store and transfer bandwidth to save the least time — the
// persistent kinds are the compact derived tables. A later run on the same
// client rebuilds them into the storage an earlier one released
// (node.Scratch).

// ArtifactSchemaVersion identifies the artifact key derivation and the
// serialized artifact encodings. It is bumped whenever a key document, the
// application-profile encoding or an artifact wire format changes shape, so
// stale caches are refused rather than silently misread (see
// store.ArtifactCache). v2 replaced the full-annotation artifact with the
// per-(app, cache-config) hit-rate table.
const ArtifactSchemaVersion = 2

// ArtifactKind names one cached intermediate in key documents, wire
// envelopes and per-kind statistics.
type ArtifactKind string

const (
	// ArtifactHitRates is a node.HitRateTable: the resolved cache level of
	// every sample memory access of one (application, cores, vector width,
	// cache configuration). Overlaid on the run-local fused trace it
	// reconstructs the shared annotation of an annotation group bit-for-bit
	// — every timing and memory variant of the group reuses it.
	ArtifactHitRates ArtifactKind = "hit-rates"
	// ArtifactLatencyModel is a dram.LatencyModel: the fitted load-latency
	// curve of one (application, channels, memory kind).
	ArtifactLatencyModel ArtifactKind = "latency-model"
	// ArtifactBurst is a trace.Burst: the synthesized coarse-grain MPI
	// trace of one (application, rank count) replayed by the cluster stage.
	ArtifactBurst ArtifactKind = "burst-trace"
)

// ArtifactProvider serves and persists sweep artifacts. dse.Run consults it
// before building an artifact and hands freshly built ones back; providers
// decide durability (in-memory, on disk, remote). Implementations must be
// safe for concurrent use. Values passed in and handed out are shared, not
// copied: callers and providers alike must treat them as immutable.
//
// Reusing a provided artifact is bitwise-equivalent to rebuilding it — the
// keys encode every build input, including the application profile by
// content — so a warm run produces measurements byte-identical to a cold
// one (pinned by the golden-dataset digest test).
type ArtifactProvider interface {
	HitRates(key string) (node.HitRateTable, bool)
	PutHitRates(key string, t node.HitRateTable)
	LatencyModel(key string) (dram.LatencyModel, bool)
	PutLatencyModel(key string, m dram.LatencyModel)
	Burst(key string) (*trace.Burst, bool)
	PutBurst(key string, b *trace.Burst)
}

// AppHash returns the content address of an application profile: the hex
// SHA-256 of its JSON encoding. Artifact keys embed it instead of the
// profile's name, so retuning a built-in model or registering a different
// custom profile under the same name invalidates exactly the artifacts it
// affects.
func AppHash(app *apps.Profile) string {
	b, err := json.Marshal(app)
	if err != nil {
		// Profile is a tree of plain exported fields; Marshal cannot fail.
		panic(fmt.Sprintf("dse: marshal profile %q: %v", app.Name, err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// CacheGroup identifies configurations whose cache behavior is identical:
// same core count (L3 partition), vector width (fused footprints) and cache
// configuration. It is AnnGroup without the memory kind — memory latency
// enters the pipeline only at timing replay, after the hierarchy walk — so
// annotation groups that differ only in memory share one hit-rate table.
type CacheGroup struct {
	Cores int
	Vec   int
	Cache string
}

// CacheGroup returns the group's cache-behavior signature.
func (g AnnGroup) CacheGroup() CacheGroup {
	return CacheGroup{Cores: g.Cores, Vec: g.Vec, Cache: g.Cache}
}

// CacheGroup returns the point's cache-behavior signature.
func (p ArchPoint) CacheGroup() CacheGroup { return p.AnnGroup().CacheGroup() }

// artifactKeyDoc is the canonical key document of one artifact; its JSON
// encoding is hashed into the artifact key. Field order is fixed and the
// schema version is embedded, mirroring the canonical-experiment encoding
// behind the result-store keys (see TestArtifactKeyGolden).
type artifactKeyDoc struct {
	V        int          `json:"v"`
	Kind     ArtifactKind `json:"kind"`
	App      string       `json:"app"` // AppHash, not the name
	Group    *CacheGroup  `json:"group,omitempty"`
	Channels int          `json:"channels,omitempty"`
	Mem      string       `json:"mem,omitempty"`
	Policy   string       `json:"policy,omitempty"`
	Ranks    int          `json:"ranks,omitempty"`
	Sample   int64        `json:"sample,omitempty"`
	Warmup   int64        `json:"warmup,omitempty"`
	Seed     uint64       `json:"seed"`
}

func (d artifactKeyDoc) key() string {
	b, err := json.Marshal(d)
	if err != nil {
		panic(fmt.Sprintf("dse: marshal artifact key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// HitRateKey returns the content address of the hit-rate table of one
// (application, cache group) at the given fidelity and seed. appHash is
// AppHash of the profile. Implicit fidelity is resolved through
// apps.EffectiveFidelity — the same rule node.ColdPass simulates
// with and shardExperiment materializes on the fleet wire — so a run that
// leaves fidelity implicit and one that spells out the defaults address
// the same artifact.
func HitRateKey(appHash string, g CacheGroup, sample, warmup int64, seed uint64) string {
	sample, warmup = apps.EffectiveFidelity(sample, warmup)
	return artifactKeyDoc{
		V: ArtifactSchemaVersion, Kind: ArtifactHitRates, App: appHash,
		Group: &g, Sample: sample, Warmup: warmup, Seed: seed,
	}.key()
}

// LatencyModelKey returns the content address of the fitted DRAM
// load-latency curve of one (application, channel count, memory kind). The
// curve depends on the application's locality profile (via appHash), the
// memory configuration and the seed — not on sample sizes.
func LatencyModelKey(appHash string, channels int, mem MemKind, seed uint64) string {
	return artifactKeyDoc{
		V: ArtifactSchemaVersion, Kind: ArtifactLatencyModel, App: appHash,
		Channels: channels, Mem: mem.String(), Policy: dram.FRFCFS.String(),
		Seed: seed,
	}.key()
}

// BurstKey returns the content address of the synthesized burst trace of
// one (application, rank count, seed).
func BurstKey(appHash string, ranks int, seed uint64) string {
	return artifactKeyDoc{
		V: ArtifactSchemaVersion, Kind: ArtifactBurst, App: appHash,
		Ranks: ranks, Seed: seed,
	}.key()
}

// Residency of the fused-trace and hit-rate-table front. Groups are
// dispatched in sorted order except that each application's first group
// goes out before the previous application's last two (dispatchOrder), so
// near an application boundary two applications are live at once. The
// front keeps an application's entry until its last group is done
// (runArtifacts.groupDone), which takes it out and hands the halves — and,
// in a run without a provider, the tables' level columns — to the scratch
// (node.Scratch; DESIGN §15 has what each kind is and when it returns).
// Never in the scratch: a hit-rate table of a run with a provider (which may
// hold it).
//
// The client's checkpoint front is bounded by bytes, because a checkpoint
// holds the rest of the basic block its generator stopped in: 0.2–25 KB for
// the five built-in applications at the benchmark's fidelity. 1 MiB holds
// dozens of (application, fidelity, seed) checkpoints, and one larger than
// the bound is simply not retained. Evicting early is safe: a re-request
// steps the generator through the warm window again, trading time, never
// bytes.
const maxSampleWindowBytes = 1 << 20

// onceMap is the one front type: a map of once-guarded slots, FIFO bounded by
// the bytes size reports when maxBytes > 0, or emptied by its owner (take)
// otherwise. The
// slot insert under the mutex is cheap, the build runs outside it, and
// concurrent requests for the same key block on the slot's once instead of
// duplicating work — so a slow build (a latency fit, a cache walk) never
// stalls lookups of other keys, and each key is built at most once while its
// slot is resident.
type onceMap[K comparable, V any] struct {
	mu       sync.Mutex
	maxBytes int64         // 0 = no byte bound
	size     func(V) int64 // measures a built value; nil = bytes stay 0
	bytes    int64         // resident bytes, as measured by size
	slots    map[K]*onceSlot[V]
	order    []K
}

type onceSlot[V any] struct {
	once  sync.Once
	v     V
	bytes int64
	built bool // v is set; guarded by the map's mutex
}

func (m *onceMap[K, V]) get(key K, build func() V) V {
	m.mu.Lock()
	e := m.slots[key]
	if e == nil {
		if m.slots == nil {
			m.slots = map[K]*onceSlot[V]{}
		}
		e = &onceSlot[V]{}
		m.slots[key] = e
		if m.maxBytes > 0 {
			m.order = append(m.order, key)
			m.evict()
		}
	}
	m.mu.Unlock()
	e.once.Do(func() {
		v := build()
		m.mu.Lock()
		e.v, e.built = v, true
		if m.size != nil && m.slots[key] == e { // not evicted while it was being built
			e.bytes = m.size(v)
			m.bytes += e.bytes
			m.evict()
		}
		m.mu.Unlock()
	})
	return e.v
}

// take removes the slot under key from a map without a bound and returns its
// value if it was built; holders of the value keep it.
func (m *onceMap[K, V]) take(key K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.slots[key]
	delete(m.slots, key)
	if e != nil {
		m.bytes -= e.bytes
	}
	if e == nil || !e.built {
		var zero V
		return zero, false
	}
	return e.v, true
}

// evict drops the oldest slots until the byte bound holds; a value larger
// than maxBytes on its own evicts itself. Holders of an evicted slot keep its
// value.
func (m *onceMap[K, V]) evict() {
	for len(m.order) > 0 && m.maxBytes > 0 && m.bytes > m.maxBytes {
		m.bytes -= m.slots[m.order[0]].bytes
		delete(m.slots, m.order[0])
		m.order = m.order[1:]
	}
}

// sampleWindowKey addresses a sample window by content: the application
// profile's hash (never its name — a re-registered custom profile is another
// application), the effective fidelity and the seed. Both fidelity terms
// matter: the warm-up length decides where in the stream the sample starts.
type sampleWindowKey struct {
	app            string // AppHash
	sample, warmup int64  // apps.EffectiveFidelity
	seed           uint64
}

// SampleWindows is a front of sample windows that outlives a run, each kept
// as the checkpoint of its application's generator at the start of the
// window (apps.Checkpoint): the client owns one and hands it to every
// dse.Run through Options.SampleWindows, so a run after the first steps no
// generator through a warm window for an application it has seen at the
// same fidelity and seed — it restores the checkpoint and generates the
// sample window alone. It is in-memory only, once-guarded (concurrent runs
// asking for one checkpoint build it once) and bounded by bytes. Safe for
// concurrent use; the checkpoints it hands out are shared and immutable.
type SampleWindows struct {
	m                onceMap[sampleWindowKey, *apps.Checkpoint]
	front, generated atomic.Int64
}

// NewSampleWindows returns an empty front bounded at 1 MiB of checkpoints.
func NewSampleWindows() *SampleWindows { return newSampleWindows(maxSampleWindowBytes) }

// newSampleWindows returns a front bounded by bytes (0 = unbounded: a run's
// own front).
func newSampleWindows(maxBytes int64) *SampleWindows {
	w := &SampleWindows{}
	w.m.maxBytes = maxBytes
	w.m.size = (*apps.Checkpoint).Bytes
	return w
}

// SampleWindowStats counts what a SampleWindows front did: Front is the
// requests served by a checkpoint already resident or being built,
// Generated the checkpoints a generator ran for (a cold pass's, or the warm
// window stepped through), ResidentBytes the checkpoints held now.
type SampleWindowStats struct {
	Front         int64 `json:"front"`
	Generated     int64 `json:"generated"`
	ResidentBytes int64 `json:"residentBytes"`
}

// Stats returns a snapshot of the front's counters (zero for a nil front).
func (w *SampleWindows) Stats() SampleWindowStats {
	if w == nil {
		return SampleWindowStats{}
	}
	w.m.mu.Lock()
	resident := w.m.bytes
	w.m.mu.Unlock()
	return SampleWindowStats{Front: w.front.Load(), Generated: w.generated.Load(), ResidentBytes: resident}
}

// publish offers the checkpoint a cold pass took.
func (w *SampleWindows) publish(key sampleWindowKey, cp *apps.Checkpoint) {
	w.m.get(key, func() *apps.Checkpoint {
		w.generated.Add(1)
		return cp
	})
}

// get returns the checkpoint under key, running build if the front lacks
// it.
func (w *SampleWindows) get(key sampleWindowKey, build func() *apps.Checkpoint) *apps.Checkpoint {
	hit := true
	cp := w.m.get(key, func() *apps.Checkpoint {
		hit = false
		w.generated.Add(1)
		return build()
	})
	if hit {
		w.front.Add(1)
	}
	return cp
}

// cacheTarget is one cache configuration a run sweeps for an application:
// its group and a node configuration that builds its hierarchy.
type cacheTarget struct {
	group CacheGroup
	cfg   node.Config
}

// hitRates is one resolved hit-rate table and where it came from: "cache"
// (the provider) or "built" (a cold pass of this run).
type hitRates struct {
	hrt    node.HitRateTable
	source string
}

// latKey names one run's DRAM curve: the application and the memory system.
type latKey struct {
	app      string
	channels int
	mem      MemKind
}

// burstKey names one run's burst trace: the application and the rank count.
type burstKey struct {
	app   string
	ranks int
}

// runArtifacts is the run-local artifact front of one dse.Run: one onceMap
// per stage, layered over the optional cross-run ArtifactProvider. Each
// stage is built at most once per distinct stage-key per run, whatever the
// provider does and however many groups or points share the key.
type runArtifacts struct {
	backing        ArtifactProvider // nil = run-local only
	seed           uint64
	sample, warmup int64

	// The curve and burst fronts are keyed by stage coordinates, not by
	// artifact key: within one run an app name has one AppHash, so the two
	// agree, and only a miss pays for deriving the key the provider needs.
	hashes onceMap[string, string]             // app name -> content hash
	lat    onceMap[latKey, *dram.LatencyModel] // (app, channels, mem) -> fitted curve
	bursts onceMap[burstKey, *net.Program]     // (app, ranks) -> compiled trace
	graphs onceMap[string, *node.TaskGraphs]   // app name -> compiled task graphs
	// windows is the one front a run reads sample-window checkpoints
	// through: the client's, or a run-local one.
	windows *SampleWindows
	// scratch recycles what the run's builds let go: the run's own, or its
	// view of the client's.
	scratch *node.Scratch
	// caches lists the cache configurations the run sweeps per application,
	// in group order, registered by the runner before any worker starts and
	// read-only after; fronts holds their resolved hit-rate tables and fused
	// sample halves, one resolution per application. groupsLeft counts each
	// application's groups not yet done: the last one takes its entry out of
	// fronts.
	caches     map[string][]cacheTarget
	fronts     onceMap[string, appFront]
	groupsLeft map[string]*atomic.Int64
}

// appFront is what a run resolves once per application for all its groups:
// the hit-rate table of every cache configuration the run sweeps for it and
// the fused sample half of every vector width those configurations span.
type appFront struct {
	tables map[CacheGroup]hitRates
	halves map[int]*node.FusedTrace // by vector width; sample halves only
}

func newRunArtifacts(o Options) *runArtifacts {
	r := &runArtifacts{
		backing: o.Artifacts, windows: o.SampleWindows,
		seed: o.Seed, sample: o.SampleInstrs, warmup: o.WarmupInstrs,
		caches: map[string][]cacheTarget{}, groupsLeft: map[string]*atomic.Int64{},
		scratch: o.Scratch.Share(),
	}
	if r.scratch == nil {
		r.scratch = node.NewScratch()
	}
	if r.windows == nil {
		r.windows = newSampleWindows(0)
	}
	return r
}

// addGroup registers one annotation group of app, whose points build their
// nodes from cfg; groups that differ only in memory kind share a cache
// configuration. Called before the run's workers start.
func (r *runArtifacts) addGroup(app string, g AnnGroup, cfg node.Config) {
	left := r.groupsLeft[app]
	if left == nil {
		left = new(atomic.Int64)
		r.groupsLeft[app] = left
	}
	left.Add(1)
	if !slices.ContainsFunc(r.caches[app], func(t cacheTarget) bool { return t.group == g.CacheGroup() }) {
		r.caches[app] = append(r.caches[app], cacheTarget{g.CacheGroup(), cfg})
	}
}

// groupDone marks one group of app done; after its last, no point of app is
// left to read the application's fused halves and tables, so they leave the
// front: the halves and, when the run has no provider, the tables' level
// columns go to the scratch; with a provider the tables are let go (it may
// hold them).
func (r *runArtifacts) groupDone(app string) {
	if r.groupsLeft[app].Add(-1) > 0 {
		return
	}
	f, ok := r.fronts.take(app)
	if !ok {
		return
	}
	for _, ft := range f.halves {
		r.scratch.ReleaseFused(ft)
	}
	if r.backing == nil {
		for _, t := range f.tables {
			r.scratch.ReleaseTable(t.hrt)
		}
	}
}

// endRun hands the scratch back once every worker has exited
// (node.Scratch.EndRun) and records on the run's span how many of its draws
// of each kind came from storage already used — by this run or, on a
// client's scratch, an earlier one ("scratch.<kind>" = "<reused>/<all>",
// this run's draws only) — and what the scratch holds for the runs that
// follow, out of what it may keep ("scratch.held_bytes" = "<held>/<bound>").
func (r *runArtifacts) endRun(span *obs.Span) {
	r.scratch.EndRun()
	if span == nil {
		return
	}
	for k, n := range r.scratch.Stats() {
		span.SetAttr("scratch."+node.ScratchKind(k).String(), fmt.Sprintf("%d/%d", n.Reused, n.Reused+n.New))
	}
	span.SetAttr("scratch.held_bytes", fmt.Sprintf("%d/%d", r.scratch.Held().Bytes(), node.MaxScratchKeepBytes))
}

// appHash memoizes AppHash per application.
func (r *runArtifacts) appHash(app *apps.Profile) string {
	return r.hashes.get(app.Name, func() string { return AppHash(app) })
}

// resolve is the run-front miss of one persistent stage: ask the provider
// for key, else build, time the build and hand the result back. Callers
// run it inside the stage's span, past any run-local front, so only this
// path — a cache decode or a real build — is traced, and the stage
// histogram counts real builds only: its observation count reads as
// "artifacts built", which a run-front, cache or ring-peer hit leaves
// untouched. get and put are the provider's methods for the kind.
func resolve[V any](r *runArtifacts, span *obs.Span, stage, key string,
	get func(ArtifactProvider, string) (V, bool), build func() V, put func(ArtifactProvider, string, V)) V {
	if r.backing != nil {
		if v, ok := get(r.backing, key); ok {
			span.SetAttr("source", "cache")
			return v
		}
	}
	span.SetAttr("source", "built")
	start := time.Now()
	v := build()
	observeStage(stage, start)
	if r.backing != nil {
		put(r.backing, key, v)
	}
	return v
}

// latencyModel returns the fitted DRAM curve for (app, channels, mem
// kind), consulting the run front, then the provider, then building. ctx
// parents the stage span.
func (r *runArtifacts) latencyModel(ctx context.Context, app *apps.Profile, ch int, mem MemKind) *dram.LatencyModel {
	return r.lat.get(latKey{app.Name, ch, mem}, func() *dram.LatencyModel {
		key := LatencyModelKey(r.appHash(app), ch, mem, r.seed)
		_, span := obs.StartSpan(ctx, "dse.latency-fit",
			obs.A("app", app.Name), obs.AInt("channels", ch), obs.A("mem", mem.String()))
		defer span.End()
		m := resolve(r, span, StageLatencyFit, key, ArtifactProvider.LatencyModel,
			func() dram.LatencyModel {
				return node.BuildLatencyModel(app, dram.Config{Spec: mem.Spec(), Channels: ch}, dram.FRFCFS, r.seed)
			}, ArtifactProvider.PutLatencyModel)
		return &m
	})
}

// burst returns the burst trace of (app, ranks) compiled for replay, once per
// run: a replay only reads the program, so every worker replays the same one
// with its own compute scale. The provider holds the trace, the front its
// program.
func (r *runArtifacts) burst(ctx context.Context, app *apps.Profile, ranks int) *net.Program {
	return r.bursts.get(burstKey{app.Name, ranks}, func() *net.Program {
		key := BurstKey(r.appHash(app), ranks, r.seed)
		_, span := obs.StartSpan(ctx, "dse.burst-synthesis",
			obs.A("app", app.Name), obs.AInt("ranks", ranks))
		defer span.End()
		b := resolve(r, span, StageBurstSynthesis, key, ArtifactProvider.Burst,
			func() *trace.Burst { return apps.BurstTrace(app, ranks, r.seed) }, ArtifactProvider.PutBurst)
		p, err := net.Compile(b)
		if err != nil {
			panic(fmt.Sprintf("dse: burst trace %s: %v", key, err)) // providers validate what they serve
		}
		return p
	})
}

func (r *runArtifacts) windowKey(app *apps.Profile) sampleWindowKey {
	sample, warmup := apps.EffectiveFidelity(r.sample, r.warmup)
	return sampleWindowKey{app: r.appHash(app), sample: sample, warmup: warmup, seed: r.seed}
}

// annotation returns the shared annotation of one (app, group): the fused
// sample half of the group's width overlaid with the group's hit-rate table,
// compiled into ops's storage (node.CombineAnnotationInto). Both come from
// the run-local front, which resolves every cache configuration and width of
// the application at once (resolveApp) the first time any group asks; the
// runner asks once per annotation group and holds the result for the
// group's points, and hands its op column to the worker's next group. The
// annotation carries the application's task graphs, compiled once per
// application and run (the graphs front), not once per group.
func (r *runArtifacts) annotation(ctx context.Context, app *apps.Profile, g AnnGroup, ops []uint32) *node.Annotation {
	actx, span := obs.StartSpan(ctx, "dse.annotate", obs.A("app", app.Name))
	defer span.End()
	f := r.fronts.get(app.Name, func() appFront { return r.resolveApp(actx, app) })
	t, ok := f.tables[g.CacheGroup()]
	if !ok {
		panic(fmt.Sprintf("dse: %s group %+v was not registered with the run", app.Name, g))
	}
	span.SetAttr("source", t.source)
	ann, _ := node.CombineAnnotationInto(ops, f.halves[g.Vec], t.hrt)
	ann.Graphs = r.graphs.get(app.Name, func() *node.TaskGraphs { return node.CompileTaskGraphs(app, r.seed) })
	return &ann
}

// resolveApp resolves the hit-rate table of every cache configuration the
// run sweeps for app and the fused sample half of every width they span.
// The provider is asked for each table first; the tables it lacks are built
// by one cold pass (coldPass), which fuses its widths' halves on the way,
// and put to it once each. The widths left — every width, when the provider
// serves every table — get their halves from one generation of the sample
// window (fuseHalves). A table the provider serves must fit the half it
// overlays; one that does not is built by a second pass.
func (r *runArtifacts) resolveApp(ctx context.Context, app *apps.Profile) appFront {
	targets := r.caches[app.Name]
	f := appFront{tables: make(map[CacheGroup]hitRates, len(targets)), halves: map[int]*node.FusedTrace{}}
	var served, missing []cacheTarget
	for _, t := range targets {
		if r.backing != nil {
			if hrt, ok := r.backing.HitRates(r.hitRateKey(app, t)); ok {
				f.tables[t.group] = hitRates{hrt, "cache"}
				served = append(served, t)
				continue
			}
		}
		missing = append(missing, t)
	}
	r.coldPass(ctx, app, missing, f)
	r.fuseHalves(ctx, app, f)
	var misfits []cacheTarget
	for _, t := range served {
		if len(f.tables[t.group].hrt.Levels) != len(f.halves[t.group.Vec].Meta) {
			misfits = append(misfits, t)
		}
	}
	r.coldPass(ctx, app, misfits, f)
	return f
}

func (r *runArtifacts) hitRateKey(app *apps.Profile, t cacheTarget) string {
	return HitRateKey(r.appHash(app), t.group, r.sample, r.warmup, r.seed)
}

// fuseHalves fuses the sample half of every width the run sweeps for app
// that f holds none of, all in one generation of the sample window: it
// restores the window's checkpoint and streams the window into every such
// width's fuser at once (node.Scratch.FuseSample), under one dse.fuse span.
// The stage histogram gets one StageFuse observation per width, each an
// equal share of the time, sample generation included: the halves are
// fused one per (app, width) per run on the cold and the warm path alike,
// so the observation count reads as "fused traces built".
func (r *runArtifacts) fuseHalves(ctx context.Context, app *apps.Profile, f appFront) {
	var widths []int
	for _, t := range r.caches[app.Name] {
		if _, ok := f.halves[t.group.Vec]; !ok && !slices.Contains(widths, t.group.Vec) {
			widths = append(widths, t.group.Vec)
		}
	}
	if len(widths) == 0 {
		return
	}
	cp := r.checkpoint(ctx, app)
	_, span := obs.StartSpan(ctx, "dse.fuse", obs.A("app", app.Name), obs.AInt("widths", len(widths)))
	defer span.End()
	sample, _ := apps.EffectiveFidelity(r.sample, r.warmup)
	start := time.Now()
	for i, ft := range r.scratch.FuseSample(cp, sample, app, r.seed, widths) {
		f.halves[widths[i]] = ft
	}
	observeStageShares(StageFuse, time.Since(start), len(widths))
}

// checkpoint returns the checkpoint at the start of app's sample window at
// the run's fidelity and seed, through the run's front: every width fuses
// the window that follows it, and so does every later run on the same
// client. On a front miss the generator runs through the warm window
// without keeping it.
func (r *runArtifacts) checkpoint(ctx context.Context, app *apps.Profile) *apps.Checkpoint {
	return r.windows.get(r.windowKey(app), func() *apps.Checkpoint {
		_, span := obs.StartSpan(ctx, "dse.scalar-trace", obs.A("app", app.Name), obs.A("window", "warm"))
		defer span.End()
		return r.scratch.SampleCheckpoint(app, r.sample, r.warmup, r.seed)
	})
}

// coldPass builds the hit-rate tables of targets by one node.ColdPass over
// the widths they span, puts each to the provider and adds it to f, with
// the fused sample half of each width f holds none of yet. The checkpoint
// the pass took at the start of the sample window goes to the window front.
//
// Spans: the pass is a dse.scalar-trace span (window "full"), and under it
// each width's share is a dse.cache-walk span holding that width's dse.fuse
// span. The stage histogram gets one StageFuse observation per width and
// one StageAnnotate observation per table, each an equal share of its
// width's walk less its fuse.
func (r *runArtifacts) coldPass(ctx context.Context, app *apps.Profile, targets []cacheTarget, f appFront) {
	if len(targets) == 0 {
		return
	}
	var walks []node.WidthWalk
	var groups [][]cacheTarget // per walk, the targets of its configurations
	for _, t := range targets {
		i := slices.IndexFunc(walks, func(w node.WidthWalk) bool { return w.VectorBits == t.group.Vec })
		if i < 0 {
			i = len(walks)
			walks = append(walks, node.WidthWalk{VectorBits: t.group.Vec})
			groups = append(groups, nil)
		}
		walks[i].Configs = append(walks[i].Configs, t.cfg)
		groups[i] = append(groups[i], t)
	}
	pctx, span := obs.StartSpan(ctx, "dse.scalar-trace", obs.A("app", app.Name), obs.A("window", "full"))
	walkCtx := make([]context.Context, len(walks))
	fuseTime := make([]time.Duration, len(walks))
	cp, res := node.ColdPass{
		App: app, Sample: r.sample, Warmup: r.warmup, Seed: r.seed,
		Widths: walks, Scratch: r.scratch,
		Stage: func(i int, s node.PassStage) func() {
			start := time.Now()
			vec := obs.AInt("vec", walks[i].VectorBits)
			if s == node.StageFuse {
				_, fspan := obs.StartSpan(walkCtx[i], "dse.fuse", obs.A("app", app.Name), vec)
				return func() {
					fuseTime[i] = time.Since(start)
					observeStageShares(StageFuse, fuseTime[i], 1)
					fspan.End()
				}
			}
			var wspan *obs.Span
			walkCtx[i], wspan = obs.StartSpan(pctx, "dse.cache-walk",
				obs.A("app", app.Name), vec, obs.AInt("tables", len(walks[i].Configs)))
			return func() {
				observeStageShares(StageAnnotate, time.Since(start)-fuseTime[i], len(walks[i].Configs))
				wspan.End()
			}
		},
	}.Run()
	span.End()
	r.windows.publish(r.windowKey(app), cp)
	for i, w := range res {
		// A width whose half f already holds (fused to check a served table)
		// keeps that one; the pass's goes straight back.
		if _, ok := f.halves[walks[i].VectorBits]; ok {
			r.scratch.ReleaseFused(w.Fused)
		} else {
			f.halves[walks[i].VectorBits] = w.Fused
		}
		for j, hrt := range w.Tables {
			t := groups[i][j]
			f.tables[t.group] = hitRates{hrt, "built"}
			if r.backing != nil {
				r.backing.PutHitRates(r.hitRateKey(app, t), hrt)
			}
		}
	}
}
