package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
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
// content so they can be cached across runs and shared by the processes of
// one host through an artifact directory. The per-point pipeline is factored into staged
// sub-results, each keyed by exactly the inputs that can change it:
//
//	sample window    (app, fidelity, seed)                      client-lifetime
//	fused trace      (app, vector width, fidelity, seed)        run-local, sample half
//	hit-rate table   (app, cores, vector width, cache, fidelity, seed)
//	DRAM curve       (app, channels, memory kind, seed)
//	burst trace      (app, rank count, seed)
//
// so an 864-point sweep computes each stage once per distinct stage-key
// instead of once per point. The paper's central economy is reuse (one
// traced execution feeds burst-mode scaling and detailed node simulation,
// §II); the artifact layer makes that reuse durable and process-spanning.
//
// The sample window — the scalar micro-ops every fuse reads — outlives the
// run in a SampleWindows front the client owns: in memory only, bounded by
// bytes, keyed by content. The warm window is never kept: the tables an
// application lacks are built by one node.ColdPass, which streams the warm
// window through every width's fuser and caches a chunk at a time and leaves
// its sample window in the front. Fused traces stay run-local: they are the
// bulkiest stage and the cheapest to rebuild per byte, so persisting them
// would spend store and transfer bandwidth to save the least time — the
// persistent kinds are the compact derived tables.

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

// Residency of the scalar-window, fused-trace and hit-rate-table fronts, and
// the run scratch. Groups are sorted by application, then cores, cache
// configuration, width and memory kind, and dispatched in that order except
// that each application's first group goes out before the previous
// application's last two (dispatchOrder): so near an application boundary two
// applications are live at once. An application's first group resolves all
// its tables, by one cold pass if any is missing; the other groups wait for
// it. The fronts keep an application's entries — its sample window, a
// sample-half fused trace per width (a few MB at 120 000 micro-ops) and every
// table — until its last group is done (runArtifacts.groupDone), which takes
// them out. The window and the halves then go to the run's scratch
// (node.Scratch), which hands their storage to the next application's window
// and fuses; a cold pass returns its two chunk buffers and each width's cache
// hierarchies to the scratch when it ends, and the next pass over the same
// configurations resets them in place (the scratch keeps 16 MiB of cache
// arrays: a 64-core slice's, not a full grid's 1-core L3s); a worker
// compiles each group's op column into the one its previous group is done
// with. Never in the scratch: a window the client's front holds (the run did
// not build it for itself), and every hit-rate table (the provider may hold
// it). The scratch lives as long as the run, so nothing of it outlives the
// run.
//
// The client's window front is bounded by bytes, because its entries differ
// in size by orders of magnitude (an optimizer rung of 20 000 micro-ops, a
// 20 M-micro-op request): 64 MiB holds the five built-in applications at
// default fidelity (300 000 micro-ops x 32 B = 9.6 MB each) with room for a
// custom profile, and a window larger than the bound is simply not retained.
// Evicting early is safe: a re-request rebuilds the window, trading time,
// never bytes.
const maxSampleWindowBytes = 64 << 20

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

// peek returns the value under key if it is resident and built; it never
// builds and never waits for a build.
func (m *onceMap[K, V]) peek(key K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.slots[key]; e != nil && e.built {
		return e.v, true
	}
	var zero V
	return zero, false
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
func NewSampleWindows() *SampleWindows { return newSampleWindows(maxSampleWindowBytes) }

// newSampleWindows returns a front bounded by bytes (0 = unbounded: a run's
// own front, emptied application by application).
func newSampleWindows(maxBytes int64) *SampleWindows {
	w := &SampleWindows{}
	w.m.maxBytes = maxBytes
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

// publish offers a sample window a cold pass generated.
func (w *SampleWindows) publish(key sampleWindowKey, st node.ScalarTrace) {
	w.m.get(key, func() node.ScalarTrace {
		w.generated.Add(1)
		return st
	})
}

// peek returns the window under key if the front holds it, counted as served
// by the front; it never generates.
func (w *SampleWindows) peek(key sampleWindowKey) (node.ScalarTrace, bool) {
	st, ok := w.m.peek(key)
	if ok {
		w.front.Add(1)
	}
	return st, ok
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

// fusedKey addresses a run-local fused trace. The application is identified
// by name: within one run a name maps to one profile.
type fusedKey struct {
	app string
	vec int
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
	// windows is the one front a run reads sample windows through: the
	// client's, or a run-local one (ownWindows), whose windows go to the
	// scratch with the application's fused traces.
	windows    *SampleWindows
	ownWindows bool
	fused      onceMap[fusedKey, *node.FusedTrace] // sample half only
	// scratch recycles, within the run, the storage of the windows and
	// fused traces the fronts let go and of every cold pass (see the
	// residency comment above maxSampleWindowBytes).
	scratch *node.Scratch
	// caches lists the cache configurations the run sweeps per application,
	// in group order, registered by the runner before any worker starts and
	// read-only after; tables holds their resolved hit-rate tables, one
	// resolution per application. groupsLeft counts each application's
	// groups not yet done: the last one takes its window, fused traces and
	// tables out of the fronts.
	caches     map[string][]cacheTarget
	tables     onceMap[string, map[CacheGroup]hitRates]
	groupsLeft map[string]*atomic.Int64
}

func newRunArtifacts(o Options) *runArtifacts {
	r := &runArtifacts{
		backing: o.Artifacts, windows: o.SampleWindows,
		seed: o.Seed, sample: o.SampleInstrs, warmup: o.WarmupInstrs,
		caches: map[string][]cacheTarget{}, groupsLeft: map[string]*atomic.Int64{},
		scratch: new(node.Scratch),
	}
	if r.windows == nil {
		r.windows, r.ownWindows = newSampleWindows(0), true
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
// left to read the application's window, fused traces and tables, so they
// leave the fronts: the fused traces, and a window of the run's own front,
// go to the scratch; the tables are let go (a provider may hold them).
func (r *runArtifacts) groupDone(app string) {
	if r.groupsLeft[app].Add(-1) > 0 {
		return
	}
	r.tables.take(app)
	for _, t := range r.caches[app] {
		if ft, ok := r.fused.take(fusedKey{app, t.group.Vec}); ok {
			r.scratch.ReleaseFused(ft)
		}
	}
	if hash, ok := r.hashes.peek(app); ok && r.ownWindows {
		if st, ok := r.windows.m.take(r.windowKeyOf(hash)); ok {
			r.scratch.ReleaseWindow(st)
		}
	}
}

// scratchAttrs records on the run's span how many of its windows, fused
// halves, chunk buffers and hierarchy sets came from storage the run had
// already used ("scratch.<kind>" = "<reused>/<all>").
func (r *runArtifacts) scratchAttrs(span *obs.Span) {
	if span == nil {
		return
	}
	st := r.scratch.Stats()
	for _, c := range []struct {
		kind string
		n    node.ScratchCount
	}{{"windows", st.Windows}, {"halves", st.Halves}, {"chunks", st.Chunks}, {"hierarchies", st.Hierarchies}} {
		span.SetAttr("scratch."+c.kind, fmt.Sprintf("%d/%d", c.n.Reused, c.n.Reused+c.n.New))
	}
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

// fusedTrace returns the run-local sample half of the fused trace of (app,
// vector width) — all an annotation served from a hit-rate table reads —
// building it at most once per key, unless a cold pass built it first.
// Fused traces are never persisted (see the file comment); the stage
// histogram counts these builds and the cold pass's, one per (app, width)
// per run on the cold and the warm path alike, so its observation count
// reads as "fused traces built". The sample window is resolved before the
// clock starts: generating it is not fusing.
func (r *runArtifacts) fusedTrace(ctx context.Context, app *apps.Profile, vec int) *node.FusedTrace {
	return r.fused.get(fusedKey{app.Name, vec}, func() *node.FusedTrace {
		st := r.sampleWindow(ctx, app)
		_, span := obs.StartSpan(ctx, "dse.fuse",
			obs.A("app", app.Name), obs.AInt("vec", vec))
		defer span.End()
		start := time.Now()
		ft := r.scratch.FuseSample(st, app, vec, r.seed)
		observeStage(StageFuse, start)
		return ft
	})
}

// sampleWindow returns the scalar sample window of one application at the
// run's fidelity and seed: every vector width fuses the identical scalar
// sequence, and so does every later run on the same client. On a front miss
// the generator runs through the warm window without keeping it.
func (r *runArtifacts) sampleWindow(ctx context.Context, app *apps.Profile) node.ScalarTrace {
	return r.windows.get(r.windowKey(app), func() node.ScalarTrace {
		_, span := obs.StartSpan(ctx, "dse.scalar-trace", obs.A("app", app.Name), obs.A("window", "sample"))
		defer span.End()
		return r.scratch.SampleWindow(app, r.sample, r.warmup, r.seed)
	})
}

func (r *runArtifacts) windowKey(app *apps.Profile) sampleWindowKey {
	return r.windowKeyOf(r.appHash(app))
}

// windowKeyOf is the key of the run's sample window of the application whose
// AppHash is hash.
func (r *runArtifacts) windowKeyOf(hash string) sampleWindowKey {
	sample, warmup := apps.EffectiveFidelity(r.sample, r.warmup)
	return sampleWindowKey{app: hash, sample: sample, warmup: warmup, seed: r.seed}
}

// annotation returns the shared annotation of one (app, group): the fused
// trace overlaid with the group's hit-rate table, compiled into ops's storage
// (node.CombineAnnotationInto). The table comes from the run-local tables
// front, which resolves every cache configuration of the application at once
// (hitRateTables) the first time any of them is asked for; the runner asks
// once per annotation group and holds the result for the group's points, and
// hands its op column to the worker's next group.
func (r *runArtifacts) annotation(ctx context.Context, app *apps.Profile, g AnnGroup, ops []uint32) *node.Annotation {
	actx, span := obs.StartSpan(ctx, "dse.annotate", obs.A("app", app.Name))
	defer span.End()
	tables := r.tables.get(app.Name, func() map[CacheGroup]hitRates {
		return r.hitRateTables(actx, app)
	})
	t, ok := tables[g.CacheGroup()]
	if !ok {
		panic(fmt.Sprintf("dse: %s group %+v was not registered with the run", app.Name, g))
	}
	span.SetAttr("source", t.source)
	ann, _ := node.CombineAnnotationInto(ops, r.fusedTrace(ctx, app, g.Vec), t.hrt)
	ann.Memo = node.NewTimingMemo()
	return &ann
}

// hitRateTables resolves the hit-rate table of every cache configuration the
// run sweeps for app. The provider is asked for each first; the tables it
// lacks are built by one cold pass (coldPass) and put to it once each. A
// table it serves must fit the fused trace it overlays; one that does not is
// built by a second pass, after the first has left the sample window and its
// fused traces in the fronts, which is where the check finds them.
func (r *runArtifacts) hitRateTables(ctx context.Context, app *apps.Profile) map[CacheGroup]hitRates {
	targets := r.caches[app.Name]
	out := make(map[CacheGroup]hitRates, len(targets))
	var served, missing []cacheTarget
	for _, t := range targets {
		if r.backing != nil {
			if hrt, ok := r.backing.HitRates(r.hitRateKey(app, t)); ok {
				out[t.group] = hitRates{hrt, "cache"}
				served = append(served, t)
				continue
			}
		}
		missing = append(missing, t)
	}
	r.coldPass(ctx, app, missing, out)
	var misfits []cacheTarget
	for _, t := range served {
		if len(out[t.group].hrt.Levels) != len(r.fusedTrace(ctx, app, t.group.Vec).Meta) {
			misfits = append(misfits, t)
		}
	}
	r.coldPass(ctx, app, misfits, out)
	return out
}

func (r *runArtifacts) hitRateKey(app *apps.Profile, t cacheTarget) string {
	return HitRateKey(r.appHash(app), t.group, r.sample, r.warmup, r.seed)
}

// coldPass builds the hit-rate tables of targets by one node.ColdPass over
// the widths they span, puts each to the provider and adds it to out. The
// pass's fused sample halves go to the fused front, and the sample window it
// generated to the window front; a window the front already holds is handed
// to the pass instead, which then generates the warm window alone.
//
// Spans: the pass is a dse.scalar-trace span (window "full", or "warm" when
// the front held the sample window), and under it each width's share is a
// dse.cache-walk span holding that width's dse.fuse span. The stage
// histogram gets one StageFuse observation per width and one StageAnnotate
// observation per table, each an equal share of its width's walk less its
// fuse.
func (r *runArtifacts) coldPass(ctx context.Context, app *apps.Profile, targets []cacheTarget, out map[CacheGroup]hitRates) {
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
	key := r.windowKey(app)
	window, held := r.windows.peek(key)
	kind := "full"
	if held {
		kind = "warm"
	}
	pctx, span := obs.StartSpan(ctx, "dse.scalar-trace", obs.A("app", app.Name), obs.A("window", kind))
	walkCtx := make([]context.Context, len(walks))
	fuseTime := make([]time.Duration, len(walks))
	st, res := node.ColdPass{
		App: app, Sample: r.sample, Warmup: r.warmup, Seed: r.seed,
		Window: window, Widths: walks, Scratch: r.scratch,
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
	if !held {
		r.windows.publish(key, st)
	}
	for i, w := range res {
		// A width whose half the front already holds (fused to check a served
		// table) keeps that one; the pass's goes straight back.
		if r.fused.get(fusedKey{app.Name, walks[i].VectorBits}, func() *node.FusedTrace { return w.Fused }) != w.Fused {
			r.scratch.ReleaseFused(w.Fused)
		}
		for j, hrt := range w.Tables {
			t := groups[i][j]
			out[t.group] = hitRates{hrt, "built"}
			if r.backing != nil {
				r.backing.PutHitRates(r.hitRateKey(app, t), hrt)
			}
		}
	}
}
