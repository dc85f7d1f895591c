package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"musa/internal/apps"
	"musa/internal/dram"
	"musa/internal/isa"
	"musa/internal/net"
	"musa/internal/node"
	"musa/internal/obs"
	"musa/internal/trace"
)

// This file is the artifact layer of the sweep runner: the expensive
// intermediates a sweep builds on the way to its measurements, addressed by
// content so they can be cached across runs, served over HTTP and shipped
// to fleet workers. The per-point pipeline is factored into staged
// sub-results, each keyed by exactly the inputs that can change it:
//
//	sample window    (app, fidelity, seed)                      client-lifetime
//	fused trace      (app, vector width, fidelity, seed)        run-local
//	hit-rate table   (app, cores, vector width, cache, fidelity, seed)
//	DRAM curve       (app, channels, memory kind, seed)
//	burst trace      (app, rank count, seed)
//
// so an 864-point sweep computes each stage once per distinct stage-key
// instead of once per point. The paper's central economy is reuse (one
// traced execution feeds burst-mode scaling and detailed node simulation,
// §II); the artifact layer makes that reuse durable and process-spanning.
//
// Scalar windows come in two kinds. The sample window — the scalar micro-ops
// every fuse reads — outlives the run in a SampleWindows front the client
// owns: in memory only, bounded by bytes, keyed by content. The full window
// (warm + sample) is read only by a cache walk, is three times the size and
// stays run-local; building one publishes a copy of its sample part to the
// front. Fused traces stay run-local too: they are the bulkiest stage and the
// cheapest to rebuild per byte, so persisting them would spend store and
// transfer bandwidth to save the least time — the persistent kinds are the
// compact derived tables.

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
// apps.EffectiveFidelity — the same rule node.BuildFusedTrace simulates
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

// Residency bounds of the scalar-window, fused-trace and hit-rate-table
// fronts. Groups are sorted by application, then cores, cache configuration
// and width, so an application's first groups are its distinct widths: the
// workers fuse and walk different widths side by side, and every later group
// of the application finds its table in the tables front. They are
// dispatched in that order except that each application's first group goes
// out before the previous application's last two groups, though never before
// one of its walk-starting groups (dispatchOrder): so near an application
// boundary two applications are live at once. Sample-half fused traces (tens
// of MB at full fidelity) and table sets are held per (application, width),
// at most three per application, six across the boundary;
// maxRunFusedTraces bounds both. Warm halves are never held: each is built
// for its one walk and dropped with it, though the walks of three widths may
// be under way at once. Scalar windows are bounded tighter still. A full
// window — the bulkiest object of a run, 26 MB at 120 000/700 000 micro-ops —
// is read by the walks of the application's first groups, one per width, and
// is dead weight after, so the next application's replaces it: every walk of
// the previous application has been handed out by then. The sample windows
// of a run without a client front keep the previous application's too. The client's front is bounded by bytes
// instead, because its entries differ in size by orders of magnitude (an
// optimizer rung of 20 000 micro-ops, a 20 M-micro-op request): 64 MiB holds
// the five built-in applications at default fidelity (300 000 micro-ops x
// 32 B = 9.6 MB each) with room for a custom profile, and a window larger
// than the bound is simply not retained. Evicting early is safe everywhere: a
// re-request rebuilds the stage, trading time, never bytes.
const (
	maxRunFullWindows    = 1
	maxRunSampleWindows  = 2
	maxRunFusedTraces    = 8
	maxSampleWindowBytes = 64 << 20
)

// onceMap is the one front type: a map of once-guarded slots, FIFO bounded by
// count when bound > 0 and by the bytes size reports when maxBytes > 0. The
// slot insert under the mutex is cheap, the build runs outside it, and
// concurrent requests for the same key block on the slot's once instead of
// duplicating work — so a slow build (a latency fit, a cache walk) never
// stalls lookups of other keys, and each key is built at most once while its
// slot is resident.
type onceMap[K comparable, V any] struct {
	mu       sync.Mutex
	bound    int           // 0 = no count bound
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
		if m.bound > 0 || m.maxBytes > 0 {
			m.order = append(m.order, key)
			m.evict()
		}
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.v = build()
		if m.size == nil {
			return
		}
		m.mu.Lock()
		if m.slots[key] == e { // not evicted while it was being built
			e.bytes = m.size(e.v)
			m.bytes += e.bytes
			m.evict()
		}
		m.mu.Unlock()
	})
	return e.v
}

// evict drops the oldest slots until both bounds hold; a value larger than
// maxBytes on its own evicts itself. Holders of an evicted slot keep its value.
func (m *onceMap[K, V]) evict() {
	for len(m.order) > 0 && (m.bound > 0 && len(m.order) > m.bound || m.maxBytes > 0 && m.bytes > m.maxBytes) {
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

// SampleWindows is a front of sample windows (node.ScalarTrace with Warm == 0)
// that outlives a run: the client owns one and hands it to every dse.Run
// through Options.SampleWindows, so a run after the first generates nothing
// for an application it has seen at the same fidelity and seed. It is
// in-memory only, once-guarded (concurrent runs asking for one window build it
// once) and bounded by bytes. Safe for concurrent use; the windows it hands
// out are shared and immutable.
type SampleWindows struct {
	m                onceMap[sampleWindowKey, node.ScalarTrace]
	front, generated atomic.Int64
}

// NewSampleWindows returns an empty front bounded at 64 MiB of windows.
func NewSampleWindows() *SampleWindows { return newSampleWindows(0, maxSampleWindowBytes) }

// newSampleWindows returns a front bounded by count, by bytes, or both (0 =
// that bound is off).
func newSampleWindows(bound int, maxBytes int64) *SampleWindows {
	w := &SampleWindows{}
	w.m.bound, w.m.maxBytes = bound, maxBytes
	instrBytes := int64(reflect.TypeFor[isa.Instr]().Size())
	w.m.size = func(st node.ScalarTrace) int64 { return int64(len(st.Instrs)) * instrBytes }
	return w
}

// SampleWindowStats counts what a SampleWindows front did: Front is the
// requests served by a window already resident or being built, Generated the
// windows a generator ran for, ResidentBytes the windows held now.
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

// publish offers the sample part of a freshly generated full window.
func (w *SampleWindows) publish(key sampleWindowKey, full node.ScalarTrace) {
	w.m.get(key, func() node.ScalarTrace {
		w.generated.Add(1)
		return full.SampleWindow()
	})
}

// get returns the window under key, running build if the front lacks it.
func (w *SampleWindows) get(key sampleWindowKey, build func() node.ScalarTrace) node.ScalarTrace {
	hit := true
	st := w.m.get(key, func() node.ScalarTrace {
		hit = false
		w.generated.Add(1)
		return build()
	})
	if hit {
		w.front.Add(1)
	}
	return st
}

// fusedKey addresses a run-local fused trace, and the hit-rate tables of
// every cache configuration one walk of it builds. The application is
// identified by name: within one run a name maps to one profile.
type fusedKey struct {
	app string
	vec int
}

// cacheTarget is one cache configuration a run sweeps at some (app, width):
// its group and a node configuration that builds its hierarchy.
type cacheTarget struct {
	group CacheGroup
	cfg   node.Config
}

// hitRates is one resolved hit-rate table and where it came from: "cache"
// (the provider) or "built" (a cache walk of this run).
type hitRates struct {
	hrt    node.HitRateTable
	source string
}

// runArtifacts is the run-local artifact front of one dse.Run: one onceMap
// per stage, layered over the optional cross-run ArtifactProvider. Each
// stage is built at most once per distinct stage-key per run, whatever the
// provider does and however many groups or points share the key.
type runArtifacts struct {
	backing        ArtifactProvider // nil = run-local only
	seed           uint64
	sample, warmup int64

	hashes onceMap[string, string]             // app name -> content hash
	lat    onceMap[string, *dram.LatencyModel] // artifact key -> fitted curve
	bursts onceMap[string, *net.Program]       // artifact key -> compiled trace
	// windows is the one front a run reads sample windows through: the
	// client's, or a run-local one.
	windows     *SampleWindows
	fullWindows onceMap[string, node.ScalarTrace]   // app name -> warm+sample window
	fused       onceMap[fusedKey, *node.FusedTrace] // sample half only
	// caches lists the cache configurations the run sweeps per (app, width),
	// registered by the runner before any worker starts and read-only after;
	// tables holds their resolved hit-rate tables, one resolution per key.
	caches map[fusedKey][]cacheTarget
	tables onceMap[fusedKey, map[CacheGroup]hitRates]
}

func newRunArtifacts(o Options) *runArtifacts {
	r := &runArtifacts{
		backing: o.Artifacts, windows: o.SampleWindows,
		seed: o.Seed, sample: o.SampleInstrs, warmup: o.WarmupInstrs,
	}
	if r.windows == nil {
		r.windows = newSampleWindows(maxRunSampleWindows, 0)
	}
	r.fullWindows.bound = maxRunFullWindows
	r.fused.bound = maxRunFusedTraces
	r.tables.bound = maxRunFusedTraces
	r.caches = map[fusedKey][]cacheTarget{}
	return r
}

// addCacheGroup registers the cache configuration of one annotation group of
// app, whose points build their nodes from cfg; groups that differ only in
// memory kind share it. Called before the run's workers start.
func (r *runArtifacts) addCacheGroup(app string, g AnnGroup, cfg node.Config) {
	fk := fusedKey{app, g.Vec}
	for _, t := range r.caches[fk] {
		if t.group == g.CacheGroup() {
			return
		}
	}
	r.caches[fk] = append(r.caches[fk], cacheTarget{g.CacheGroup(), cfg})
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
	key := LatencyModelKey(r.appHash(app), ch, mem, r.seed)
	return r.lat.get(key, func() *dram.LatencyModel {
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
	key := BurstKey(r.appHash(app), ranks, r.seed)
	return r.bursts.get(key, func() *net.Program {
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

// fusedTrace returns the run-local sample half of the fused trace of (app,
// vector width) — all an annotation served from a hit-rate table reads —
// building it at most once per key. Fused traces are never persisted (see the
// file comment); the stage histogram counts these builds, one per (app,
// width) per run on the cold and the warm path alike, so its observation
// count reads as "fused traces built". The sample window is resolved before
// the clock starts: generating it is not fusing.
func (r *runArtifacts) fusedTrace(ctx context.Context, app *apps.Profile, vec int) *node.FusedTrace {
	return r.fused.get(fusedKey{app.Name, vec}, func() *node.FusedTrace {
		st := r.sampleWindow(ctx, app)
		_, span := obs.StartSpan(ctx, "dse.fuse",
			obs.A("app", app.Name), obs.AInt("vec", vec))
		defer span.End()
		start := time.Now()
		ft := node.FuseSample(st, app, vec, r.seed)
		observeStage(StageFuse, start)
		return ft
	})
}

// walkableTrace returns the fused trace of (app, vector width) with its warm
// half: the sample half of fusedTrace, shared, plus the warm window's memory
// accesses. Only a cache walk reads those, and a run walks each (app, width)
// at most once, so the warm half is built there and dropped with the walk: a
// run served from hit-rate tables never builds a full window or a warm half.
// The full window comes first: building it puts its sample part in the front,
// where fusedTrace finds it instead of running the generator a second time.
func (r *runArtifacts) walkableTrace(ctx context.Context, app *apps.Profile, vec int) *node.FusedTrace {
	st := r.fullWindow(ctx, app)
	ft := *r.fusedTrace(ctx, app, vec)
	_, span := obs.StartSpan(ctx, "dse.fuse-warm",
		obs.A("app", app.Name), obs.AInt("vec", vec))
	defer span.End()
	ft.WarmOps = node.FuseWarm(st, vec)
	return &ft
}

// sampleWindow returns the scalar sample window of one application at the
// run's fidelity and seed: every vector width fuses the identical scalar
// sequence, and so does every later run on the same client. On a front miss
// the generator runs through the warm window without keeping it.
func (r *runArtifacts) sampleWindow(ctx context.Context, app *apps.Profile) node.ScalarTrace {
	return r.windows.get(r.windowKey(app), func() node.ScalarTrace {
		_, span := obs.StartSpan(ctx, "dse.scalar-trace", obs.A("app", app.Name), obs.A("window", "sample"))
		defer span.End()
		return node.BuildSampleWindow(app, r.sample, r.warmup, r.seed)
	})
}

// fullWindow returns the run-local warm+sample window of one application,
// and publishes a copy of its sample part to the sample-window front — a
// copy, so the front never pins a warm window. If the front already holds the
// window (some of the application's tables hit before this one missed) the
// generator has run twice for the application in this run, never more.
func (r *runArtifacts) fullWindow(ctx context.Context, app *apps.Profile) node.ScalarTrace {
	return r.fullWindows.get(app.Name, func() node.ScalarTrace {
		_, span := obs.StartSpan(ctx, "dse.scalar-trace", obs.A("app", app.Name), obs.A("window", "full"))
		defer span.End()
		st := node.BuildScalarTrace(app, r.sample, r.warmup, r.seed)
		r.windows.publish(r.windowKey(app), st)
		return st
	})
}

func (r *runArtifacts) windowKey(app *apps.Profile) sampleWindowKey {
	sample, warmup := apps.EffectiveFidelity(r.sample, r.warmup)
	return sampleWindowKey{app: r.appHash(app), sample: sample, warmup: warmup, seed: r.seed}
}

// annotation returns the shared annotation of one (app, group): the fused
// trace overlaid with the group's hit-rate table. The table comes from the
// run-local tables front, which resolves every cache configuration of the
// group's (app, width) at once (hitRateTables) the first time any of them is
// asked for; the runner asks once per annotation group and holds the result
// for the group's points.
func (r *runArtifacts) annotation(ctx context.Context, app *apps.Profile, g AnnGroup) *node.Annotation {
	actx, span := obs.StartSpan(ctx, "dse.annotate", obs.A("app", app.Name))
	defer span.End()
	tables := r.tables.get(fusedKey{app.Name, g.Vec}, func() map[CacheGroup]hitRates {
		return r.hitRateTables(actx, app, g.Vec)
	})
	t, ok := tables[g.CacheGroup()]
	if !ok {
		panic(fmt.Sprintf("dse: %s group %+v was not registered with the run", app.Name, g))
	}
	span.SetAttr("source", t.source)
	ann, _ := node.CombineAnnotation(r.fusedTrace(ctx, app, g.Vec), t.hrt)
	ann.Memo = node.NewTimingMemo()
	return &ann
}

// hitRateTables resolves the hit-rate table of every cache configuration the
// run sweeps at (app, vector width). The provider is asked for each first; a
// table it lacks, or one that does not fit the trace, is built, and all of
// those are built by one cache walk (node.WalkCaches: one L1 pass, each
// configuration's lower levels beside it) and put to the provider once each.
// The provider is asked before any trace is built: a hit needs only the
// sample half, a miss goes through walkableTrace and its full window.
//
// The walk records one StageAnnotate observation per table it built, each an
// equal share of its time, so the stage still counts tables built; the walks
// themselves are the dse.cache-walk spans.
func (r *runArtifacts) hitRateTables(ctx context.Context, app *apps.Profile, vec int) map[CacheGroup]hitRates {
	targets := r.caches[fusedKey{app.Name, vec}]
	out := make(map[CacheGroup]hitRates, len(targets))
	var missing []cacheTarget
	var keys []string
	for _, t := range targets {
		key := HitRateKey(r.appHash(app), t.group, r.sample, r.warmup, r.seed)
		if r.backing != nil {
			if hrt, ok := r.backing.HitRates(key); ok && len(hrt.Levels) == len(r.fusedTrace(ctx, app, vec).Meta) {
				out[t.group] = hitRates{hrt, "cache"}
				continue
			}
		}
		missing = append(missing, t)
		keys = append(keys, key)
	}
	if len(missing) == 0 {
		return out
	}
	wctx, span := obs.StartSpan(ctx, "dse.cache-walk",
		obs.A("app", app.Name), obs.AInt("vec", vec), obs.AInt("tables", len(missing)))
	start := time.Now()
	cfgs := make([]node.Config, len(missing))
	for i, t := range missing {
		cfgs[i] = t.cfg
	}
	built := node.WalkCaches(r.walkableTrace(wctx, app, vec), cfgs)
	observeStageShares(StageAnnotate, start, len(built))
	span.End()
	for i, hrt := range built {
		out[missing[i].group] = hitRates{hrt, "built"}
		if r.backing != nil {
			r.backing.PutHitRates(keys[i], hrt)
		}
	}
	return out
}
