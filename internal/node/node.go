// Package node is the node-level detailed simulator: it composes the
// runtime-system scheduler (rts), the out-of-order core model (cpu), the
// cache hierarchy (cache) and the DRAM model (dram) into MUSA's detailed
// simulation mode for one compute node.
//
// Following the paper's methodology, one representative sample (one rank,
// one iteration worth of instructions) is simulated at instruction level;
// its IPC rescales the burst trace's task durations, which are then replayed
// through the runtime-system simulator at the configured core count. Shared
// memory bandwidth is resolved by a fixed-point iteration: core throughput
// determines offered bandwidth, the DRAM load-latency curve determines the
// effective memory latency, which feeds back into core throughput.
package node

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"musa/internal/apps"
	"musa/internal/cache"
	"musa/internal/cpu"
	"musa/internal/dram"
	"musa/internal/isa"
	"musa/internal/power"
	"musa/internal/rts"
	"musa/internal/xrand"
)

// Config is the full architectural configuration of one compute node.
type Config struct {
	Cores      int
	Core       cpu.Config
	FreqGHz    float64
	VectorBits int

	L2KBPerCore int // private L2 size
	L3MBTotal   int // shared L3 size

	Mem        dram.Config
	DRAMPolicy dram.SchedPolicy

	// Runtime system parameters.
	DispatchNs float64
	RTSPolicy  rts.Policy

	// SampleInstrs is the detailed-sample length in scalar micro-ops.
	SampleInstrs int64
	// WarmupInstrs streams through the caches before measurement begins;
	// when zero it defaults to 2x SampleInstrs (enough to cover the largest
	// cacheable working sets of the five applications at the default
	// sample size).
	WarmupInstrs int64
	Seed         uint64

	// DisableContention turns off the bandwidth fixed point (ablation).
	DisableContention bool

	// LatModel optionally supplies a prebuilt DRAM load-latency curve for
	// this (application, memory) pair; the DSE driver caches these across
	// the sweep. When nil, Simulate builds one.
	LatModel *dram.LatencyModel
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("node: %d cores", c.Cores)
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if !(c.FreqGHz > 0) || math.IsInf(c.FreqGHz, 1) { // NaN fails the first test
		return fmt.Errorf("node: frequency %v", c.FreqGHz)
	}
	if c.VectorBits < 64 {
		return fmt.Errorf("node: vector width %d", c.VectorBits)
	}
	if c.L2KBPerCore <= 0 || c.L3MBTotal <= 0 {
		return fmt.Errorf("node: cache sizes %dKB/%dMB", c.L2KBPerCore, c.L3MBTotal)
	}
	return c.Mem.Validate()
}

// DIMMs returns the DIMM population (two per channel, as in the paper's
// 4-channel/64 GB and 8-channel/128 GB setups).
func (c Config) DIMMs() int { return 2 * c.Mem.Channels }

// l2Params returns associativity and latency for a private L2 size, per
// Table I (256kB/8w/9cy, 512kB/16w/11cy, 1MB/16w/13cy), extrapolating two
// cycles per doubling for unconventional sizes.
func l2Params(kb int) (assoc, latency int) {
	switch kb {
	case 256:
		return 8, 9
	case 512:
		return 16, 11
	case 1024:
		return 16, 13
	}
	lat := 9 + int(math.Round(2*math.Log2(float64(kb)/256)))
	if lat < 5 {
		lat = 5
	}
	return 16, lat
}

// l3Params returns associativity and latency for the shared L3 size, per
// Table I (32MB/68cy, 64MB/70cy, 96MB/72cy).
func l3Params(mb int) (assoc, latency int) {
	switch mb {
	case 32:
		return 16, 68
	case 64:
		return 16, 70
	case 96:
		return 16, 72
	}
	lat := 68 + int(math.Round(2*math.Log2(float64(mb)/32)))
	if lat < 40 {
		lat = 40
	}
	return 16, lat
}

// hierarchyConfig describes one core's cache stack. The shared L3 is modeled
// as an equal per-core partition (MUSA samples a single rank in detailed
// mode).
func (c Config) hierarchyConfig(memLatNs float64) cache.HierarchyConfig {
	l2a, l2l := l2Params(c.L2KBPerCore)
	l3a, l3l := l3Params(c.L3MBTotal)
	l3Share := c.L3MBTotal * 1024 * 1024 / c.Cores
	// Keep the partition a power-of-two set count: round down to one.
	l3Share = 1 << uint(math.Floor(math.Log2(float64(l3Share))))
	if l3Share < 256*1024 {
		l3Share = 256 * 1024
	}
	return cache.HierarchyConfig{
		L1:              cache.Config{Name: "L1", SizeBytes: 32 * 1024, Assoc: 8, LatencyCycle: 4},
		L2:              cache.Config{Name: "L2", SizeBytes: c.L2KBPerCore * 1024, Assoc: l2a, LatencyCycle: l2l},
		L3:              cache.Config{Name: "L3", SizeBytes: l3Share, Assoc: l3a, LatencyCycle: l3l},
		MemLatencyCycle: int(math.Round(memLatNs * c.FreqGHz)),
	}
}

// Result is the outcome of a node-level detailed simulation.
type Result struct {
	// Sample core simulation at the bandwidth fixed point.
	CoreRes cpu.Result
	// LaneThroughput is scalar lanes per second per busy core.
	LaneThroughput float64
	// MemLatencyNs is the converged effective memory latency.
	MemLatencyNs float64
	// OfferedBW is the node's converged DRAM demand (bytes/second).
	OfferedBW float64
	// Fixed-point iterations taken.
	Iterations int
	// Replays is the timing replays (cpu.RunTiming calls) the fixed point
	// ran: at most Iterations, fewer when an iteration's latency table
	// repeated the previous one or hit the annotation's memo. It feeds the
	// replay counter and is in no reply.
	Replays int `json:"-"`
	// Converged reports that the fixed point met its 1 ns tolerance. A point
	// that reaches the iteration cap without meeting it keeps the last
	// iterate and reports false; with DisableContention there is no fixed
	// point to miss and it is true.
	Converged bool

	// RegionDurNs is each region's makespan on this node.
	RegionDurNs []float64
	// IterationNs is the per-timestep compute duration (sum of regions).
	IterationNs float64
	// ComputeNs is the full per-rank compute time (all iterations).
	ComputeNs float64
	// AvgActiveCores is the schedule-weighted mean busy core count.
	AvgActiveCores float64

	// GMemReqPerSec is node DRAM line requests per second (Fig. 1 metric).
	GMemReqPerSec float64

	// Power is the average node power over the compute phase; EnergyJ is
	// power times compute time.
	Power   power.Breakdown
	EnergyJ float64
}

// MPKI returns L1/L2/L3 misses per kilo-instruction of the sample, with the
// fused-op instruction count as denominator (Fig. 1).
func (r Result) MPKI() (l1, l2, l3 float64) {
	n := r.CoreRes.Instructions
	return r.CoreRes.L1.MPKI(n), r.CoreRes.L2.MPKI(n), r.CoreRes.L3.MPKI(n)
}

// Annotation bundles a reusable annotated sample with the hierarchy
// configuration it was produced under. The DSE runner shares one Annotation
// across every (OoO, frequency, channel, memory) variant of the same
// (application, cores, vector width, cache) group — cache behavior does not
// depend on timing.
type Annotation struct {
	Ann     cpu.AnnotateResult
	HierCfg cache.HierarchyConfig

	// Memo, when set, caches timing replays and the compiled task graphs
	// across every simulation sharing this annotation (see TimingMemo). The
	// sweep runner sets it on the annotations it shares between points.
	Memo *TimingMemo
}

// TimingMemo caches what the simulations that share one annotation would
// each rebuild. RunTiming is a pure function of (core config, annotation,
// level latencies); points of one annotation group frequently replay
// identical triples — for example, memory variants that only differ in
// channel count start their bandwidth fixed point from the same unloaded
// latency — so the replay is done once and the result is reused verbatim.
// The application's task graphs at the annotation's seed are compiled by the
// first simulation and scheduled by all of them. A memo belongs to one
// annotation, so to one (application, seed): a simulation of another panics.
type TimingMemo struct {
	mu sync.Mutex
	m  map[timingKey]cpu.Result

	graphsOnce sync.Once
	graphs     compiledGraphs
	graphsOf   graphsKey // what graphs were compiled for
}

type graphsKey struct {
	app  string
	seed uint64
}

type timingKey struct {
	core cpu.Config
	lat  cpu.LevelLatencies
}

// NewTimingMemo returns an empty memo.
func NewTimingMemo() *TimingMemo {
	return &TimingMemo{m: make(map[timingKey]cpu.Result)}
}

func (tm *TimingMemo) get(core cpu.Config, lat cpu.LevelLatencies) (cpu.Result, bool) {
	tm.mu.Lock()
	r, ok := tm.m[timingKey{core, lat}]
	tm.mu.Unlock()
	return r, ok
}

func (tm *TimingMemo) put(core cpu.Config, lat cpu.LevelLatencies, r cpu.Result) {
	tm.mu.Lock()
	tm.m[timingKey{core, lat}] = r
	tm.mu.Unlock()
}

// regions returns a fresh replay of the application's task graphs at seed:
// graphs compiled once per memo, or per call without one.
func (tm *TimingMemo) regions(app *apps.Profile, seed uint64) *regionReplay {
	if tm == nil {
		return regionGraphs(app, seed)
	}
	key := graphsKey{app.Name, seed}
	tm.graphsOnce.Do(func() { tm.graphs, tm.graphsOf = compileGraphs(app, seed), key })
	if tm.graphsOf != key {
		panic(fmt.Sprintf("node: a TimingMemo of %s at seed %d used for %s at seed %d",
			tm.graphsOf.app, tm.graphsOf.seed, app.Name, seed))
	}
	return &regionReplay{graphs: tm.graphs}
}

// FusedTrace is the cache-independent stage of annotation building: the
// fused detailed-sample stream with branch-mispredict outcomes pre-drawn,
// plus the warm window's memory accesses. It depends only on (application,
// vector width, fidelity, seed) — every cache configuration of an
// application at one vector width replays the same trace — so the sweep
// runner builds it once per such key instead of once per annotation group.
// All slices are immutable once built and may be aliased by the annotations
// derived from it. The trace has two independently built halves: WarmOps
// (FuseWarm), and everything else (FuseSample).
type FusedTrace struct {
	// WarmOps is the warm window's fused memory accesses in stream order;
	// nil on a sample-half-only trace, which a cache walk must not be given.
	WarmOps []WarmOp
	// SampleOps is the sample window's fused memory accesses in stream
	// order; Idx locates each in the timing columns below.
	SampleOps []SampleOp
	// Deps/Meta are the sample's cpu.PackDeps and cpu.PackMeta columns with
	// cache levels still zero: overlaying a hit-rate table's levels
	// (CombineAnnotation) yields a complete annotated trace without
	// revisiting the instruction stream.
	Deps []uint32
	Meta []uint32
	// Counts are the trace's timing-independent aggregates, counted once
	// here and copied into every derived annotation.
	Counts cpu.TraceCounts
}

// WarmOp is one memory access of the warm window.
type WarmOp struct {
	Addr  uint64
	Size  uint16
	Write bool
}

// SampleOp is one memory access of the sample window.
type SampleOp struct {
	Addr  uint64
	Idx   int32 // position in the trace's timing columns
	Size  uint16
	Write bool
}

// HitRateTable is the cache-dependent stage of annotation building: the
// resolved hierarchy level of every sample memory access plus the window's
// cache statistics, for one (application, cores, vector width, cache
// configuration) — notably independent of the memory kind, whose latency
// enters only at timing replay. Overlaid on the matching FusedTrace it
// reconstructs the full Annotation bit-for-bit; at one byte per sample
// instruction it is the compact persistent form of an annotation, and its
// JSON encoding is the payload of a persisted hit-rates artifact (Levels,
// the bulk, rides as base64): the tags are wire format, pinned by
// store.TestArtifactCodecTable and versioned by dse.ArtifactSchemaVersion.
type HitRateTable struct {
	Levels    []uint8               `json:"levels"` // cache.Level per sample instruction; 0 for non-memory ops
	L1        cache.Stats           `json:"l1"`
	L2        cache.Stats           `json:"l2"`
	L3        cache.Stats           `json:"l3"`
	MemReads  int64                 `json:"memReads"`
	MemWrites int64                 `json:"memWrites"`
	HierCfg   cache.HierarchyConfig `json:"hierCfg"`
}

// ScalarTrace is the raw detailed scalar instruction window of one
// (application, fidelity, seed): the warm window followed by the sample
// window, before any width fusion. Every vector width of an application
// fuses the identical scalar sequence — only the fuser differs — so the
// sweep runner generates the scalar trace once and replays it per width.
// A trace with Warm == 0 is a sample window: all FuseSample reads, a
// quarter of the full window's bytes at the default 2:1 warm-up.
type ScalarTrace struct {
	Instrs []isa.Instr
	// Warm is the number of leading instructions belonging to the warm
	// window; the rest are the sample window.
	Warm int64
}

// BuildScalarTrace generates the scalar warm+sample window of one
// (application, fidelity, seed).
func BuildScalarTrace(app *apps.Profile, sampleInstrs, warmupInstrs int64, seed uint64) ScalarTrace {
	sampleInstrs, warmupInstrs = apps.EffectiveFidelity(sampleInstrs, warmupInstrs)
	return generateWindow(apps.NewDetailedStream(app, seed), warmupInstrs, sampleInstrs)
}

// BuildSampleWindow generates the sample window alone: the generator is
// stepped through the warm window — its random draws are the stream — without
// materialising it. The result equals SampleWindow of BuildScalarTrace at the
// same arguments, instruction for instruction.
func BuildSampleWindow(app *apps.Profile, sampleInstrs, warmupInstrs int64, seed uint64) ScalarTrace {
	sampleInstrs, warmupInstrs = apps.EffectiveFidelity(sampleInstrs, warmupInstrs)
	gen := apps.NewDetailedStream(app, seed)
	gen.Skip(warmupInstrs)
	return generateWindow(gen, 0, sampleInstrs)
}

// generateWindow materialises the next warm+sample micro-ops of gen.
func generateWindow(gen *apps.DetailedStream, warm, sample int64) ScalarTrace {
	instrs := make([]isa.Instr, warm+sample)
	gen.Read(instrs)
	return ScalarTrace{Instrs: instrs, Warm: warm}
}

// SampleWindow returns a copy of the trace's sample window that shares no
// memory with it, so holding the copy does not pin the warm window.
func (st ScalarTrace) SampleWindow() ScalarTrace {
	return ScalarTrace{Instrs: slices.Clone(st.Instrs[st.Warm:])}
}

// BuildFusedTrace generates and fuses the detailed instruction stream of one
// (application, vector width) at the given fidelity and seed. Branch
// mispredict outcomes are drawn here — they consume the same seed-derived
// random sequence whatever the cache configuration — so the cache walk
// (WalkCaches) is purely deterministic replay.
func BuildFusedTrace(app *apps.Profile, vectorBits int, sampleInstrs, warmupInstrs int64, seed uint64) *FusedTrace {
	return FuseScalarTrace(BuildScalarTrace(app, sampleInstrs, warmupInstrs, seed), app, vectorBits, seed)
}

// FuseScalarTrace fuses a scalar trace at one vector width: the sample half
// (FuseSample) plus the warm half (FuseWarm), which share no state. Consuming
// a prebuilt scalar window through slice streams is instruction-for-
// instruction identical to fusing the generator directly (BuildFusedTrace);
// it exists so the sweep runner can amortize generation across widths.
func FuseScalarTrace(st ScalarTrace, app *apps.Profile, vectorBits int, seed uint64) *FusedTrace {
	ft := FuseSample(st, app, vectorBits, seed)
	ft.WarmOps = FuseWarm(st, vectorBits)
	return ft
}

// FuseWarm fuses the warm window of a scalar trace into its memory accesses —
// the half of a fused trace whose only reader is the cache walk
// (WalkCaches). A run that finds its hit-rate tables already built never
// needs it.
func FuseWarm(st ScalarTrace, vectorBits int) []WarmOp {
	// The scalar budget upper-bounds the fused count (fusion only shrinks a
	// stream), so the column can be sized once instead of grown.
	ops := make([]WarmOp, 0, st.Warm/2)
	warm := isa.NewFuser(isa.NewSliceStream(st.Instrs[:st.Warm]), isa.DefaultFuserConfig(vectorBits))
	for {
		run, ok := warm.NextRun()
		if !ok {
			return ops
		}
		for i := range run {
			if in := &run[i]; in.Class.IsMem() {
				ops = append(ops, WarmOp{Addr: in.Addr, Size: in.Size, Write: in.Class == isa.Store})
			}
		}
	}
}

// mispredictSalt derives the seed of a fused trace's mispredict draws from
// the trace's seed.
const mispredictSalt = 0x5eed

// FuseSample fuses the sample window of a scalar trace: everything of a
// FusedTrace but WarmOps, which stays nil. That is all CombineAnnotation and
// the timing replay read.
func FuseSample(st ScalarTrace, app *apps.Profile, vectorBits int, seed uint64) *FusedTrace {
	sampleInstrs := int64(len(st.Instrs)) - st.Warm
	ft := &FusedTrace{
		SampleOps: make([]SampleOp, 0, sampleInstrs/2),
		Deps:      make([]uint32, 0, sampleInstrs),
		Meta:      make([]uint32, 0, sampleInstrs),
	}
	fu := isa.NewFuser(isa.NewSliceStream(st.Instrs[st.Warm:]), isa.DefaultFuserConfig(vectorBits))
	rng := xrand.New(seed ^ mispredictSalt)
	rate := app.MispredictRate
	for {
		run, ok := fu.NextRun()
		if !ok {
			break
		}
		for i := range run {
			in := &run[i]
			var flags uint8
			if in.Class == isa.Branch && rate > 0 && rng.Bernoulli(rate) {
				flags = cpu.FlagMispredict
			}
			if in.Class.IsMem() {
				ft.SampleOps = append(ft.SampleOps, SampleOp{
					Addr: in.Addr, Idx: int32(len(ft.Meta)), Size: in.Size, Write: in.Class == isa.Store,
				})
			}
			ft.Deps = append(ft.Deps, cpu.PackDeps(int64(len(ft.Meta)), in.Dep1, in.Dep2))
			ft.Meta = append(ft.Meta, cpu.PackMeta(in.Class, in.Lanes, 0, flags))
		}
	}
	ft.Counts = cpu.CountMeta(ft.Meta)
	return ft
}

// AnnotateTrace replays a fused trace through cfg's cache hierarchy: the
// warm ops populate the caches, then each sample access resolves to its
// level. It returns both the combined annotation (ready for timing replay)
// and the hit-rate table that, overlaid on the same trace, reproduces it. It
// is WalkCaches with one configuration.
func AnnotateTrace(ft *FusedTrace, cfg Config) (Annotation, HitRateTable) {
	hrt := WalkCaches(ft, []Config{cfg})[0]
	ann, _ := CombineAnnotation(ft, hrt)
	return ann, hrt
}

// WalkCaches replays a fused trace through the cache hierarchies of every
// configuration at once and returns their hit-rate tables, in order. Every
// node configuration has the same L1, so the walk looks each line up in one
// L1 (cache.SharedL1) and runs only the levels below it per configuration;
// each table equals the one a walk of its configuration alone produces.
//
// The hierarchies are built with no memory latency, so an L3 hit and a DRAM
// access cost the same and an access straddling two lines keeps the level of
// the first: one whose first line hits the L3 and whose second goes to DRAM
// is annotated L3 (pinned by TestStraddlingL3AndDRAMAnnotatesL3).
func WalkCaches(ft *FusedTrace, cfgs []Config) []HitRateTable {
	if ft.WarmOps == nil {
		// FuseWarm returns a non-nil column even for an empty warm window;
		// walking cold caches would persist a wrong hit-rate table silently.
		panic("node: cache walk on a fused trace without its warm half")
	}
	hcfgs := make([]cache.HierarchyConfig, len(cfgs))
	for i, cfg := range cfgs {
		hcfgs[i] = cfg.hierarchyConfig(0)
	}
	walk := cache.NewSharedL1(hcfgs)
	for _, op := range ft.WarmOps {
		walk.Access(op.Addr, int(op.Size), op.Write)
	}
	walk.ResetStats()
	levels := make([][]uint8, len(cfgs))
	for i := range levels {
		levels[i] = make([]uint8, len(ft.Meta))
	}
	for _, op := range ft.SampleOps {
		for i, lvl := range walk.Access(op.Addr, int(op.Size), op.Write) {
			levels[i][op.Idx] = uint8(lvl)
		}
	}
	tables := make([]HitRateTable, len(cfgs))
	for i, h := range walk.Hierarchies() {
		tables[i] = HitRateTable{
			Levels: levels[i],
			L1:     h.L1Stats(), L2: h.L2Stats(), L3: h.L3Stats(),
			MemReads: h.MemReads, MemWrites: h.MemWrites,
			HierCfg: h.Config(),
		}
	}
	return tables
}

// CombineAnnotation overlays a hit-rate table on the fused trace it was
// built from, reconstructing the annotation without a cache walk — the
// warm-artifact path. The overlay is compiled as it is built: each op's
// dependence and meta words, with the table's level, become the one op word
// the timing replay reads (cpu.Compile), so the group's replays decode
// nothing. The trace counts are copied: a level never changes the class,
// lane or flag bytes they count. It reports false on a length mismatch (a
// table from a different trace), which callers treat as a cache miss.
func CombineAnnotation(ft *FusedTrace, hrt HitRateTable) (Annotation, bool) {
	if len(hrt.Levels) != len(ft.Meta) {
		return Annotation{}, false
	}
	return Annotation{
		Ann: cpu.AnnotateResult{
			Ops: cpu.Compile(ft.Deps, ft.Meta, hrt.Levels), Counts: ft.Counts,
			L1: hrt.L1, L2: hrt.L2, L3: hrt.L3,
			MemReads: hrt.MemReads, MemWrites: hrt.MemWrites,
		},
		HierCfg: hrt.HierCfg,
	}, true
}

// BuildAnnotation warms the caches and annotates one detailed sample for
// the configuration's cache-relevant parameters (cores, vector width, cache
// sizes, sample sizes, seed) — the single-shot path; sweeps stage it
// through BuildFusedTrace + WalkCaches to share work across points.
func BuildAnnotation(app *apps.Profile, cfg Config) Annotation {
	ft := BuildFusedTrace(app, cfg.VectorBits, cfg.SampleInstrs, cfg.WarmupInstrs, cfg.Seed)
	ann, _ := AnnotateTrace(ft, cfg)
	return ann
}

// Simulate runs the detailed node simulation of app on cfg.
func Simulate(app *apps.Profile, cfg Config) Result {
	return SimulateAnnotated(app, cfg, BuildAnnotation(app, cfg))
}

// SimulateAnnotated runs the node simulation reusing a prebuilt annotation.
// The annotation must have been built for the same application, core count,
// vector width, cache configuration and seed.
func SimulateAnnotated(app *apps.Profile, cfg Config, annotation Annotation) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}

	latModel := cfg.LatModel
	if latModel == nil {
		m := BuildLatencyModel(app, cfg.Mem, cfg.DRAMPolicy, cfg.Seed)
		latModel = &m
	}

	ann := annotation.Ann
	hcfg := annotation.HierCfg

	// --- Bandwidth-contention fixed point. ---
	memLatNs := latModel.LatencyNs(0) // unloaded latency
	var res Result
	var coreRes cpu.Result
	var lastLat cpu.LevelLatencies
	haveRun := false
	activeCores := float64(cfg.Cores)
	regions := annotation.Memo.regions(app, cfg.Seed)
	for iter := 0; iter < 6; iter++ {
		res.Iterations = iter + 1
		// The timing replay is a pure function of (core config, annotation,
		// level latencies), and within this loop only the latencies vary —
		// through the cycle-quantized memory term. Near convergence
		// successive iterations often quantize to the same table, so the
		// previous result is reused verbatim instead of replayed.
		lat := cpu.LatenciesFor(hcfg, memLatNs, cfg.FreqGHz)
		if !haveRun || lat != lastLat {
			if memo := annotation.Memo; memo != nil {
				var ok bool
				if coreRes, ok = memo.get(cfg.Core, lat); !ok {
					coreRes = cpu.RunTiming(cfg.Core, ann, lat)
					res.Replays++
					memo.put(cfg.Core, lat, coreRes)
				}
			} else {
				coreRes = cpu.RunTiming(cfg.Core, ann, lat)
				res.Replays++
			}
			lastLat, haveRun = lat, true
		}
		cyclesPerSec := cfg.FreqGHz * 1e9
		secs := float64(coreRes.Cycles) / cyclesPerSec
		perCoreBW := float64(coreRes.MemReads+coreRes.MemWrites) * cache.LineBytes / secs

		// Replay the runtime system to learn how many cores are busy.
		laneTp := float64(coreRes.LaneWork) / secs
		activeCores, res.RegionDurNs = replayRegions(regions, cfg, laneTp)

		offered := perCoreBW * activeCores
		newLat := latModel.LatencyNs(offered)
		res.OfferedBW = offered
		if cfg.DisableContention {
			res.Converged = true
			break
		}
		if math.Abs(newLat-memLatNs) < 1.0 { // converged within 1 ns
			memLatNs = newLat
			res.Converged = true
			break
		}
		memLatNs = 0.5*memLatNs + 0.5*newLat
	}
	res.CoreRes = coreRes
	res.MemLatencyNs = memLatNs

	secs := float64(coreRes.Cycles) / (cfg.FreqGHz * 1e9)
	res.LaneThroughput = float64(coreRes.LaneWork) / secs
	res.AvgActiveCores = activeCores

	for _, d := range res.RegionDurNs {
		res.IterationNs += d
	}
	res.ComputeNs = res.IterationNs * float64(app.Iterations)

	// Node DRAM request rate (Fig. 1): per-core rate times busy cores.
	perCoreReqRate := float64(coreRes.MemReads+coreRes.MemWrites) / secs
	res.GMemReqPerSec = perCoreReqRate * activeCores

	res.Power, res.EnergyJ = estimatePower(app, cfg, coreRes, res)
	return res
}

// compiledGraphs is an application's runtime-system task graphs at one seed,
// one per region, compiled for repeated scheduling: every iteration of a
// simulation's bandwidth fixed point schedules them. They are immutable and
// may be shared by concurrent simulations.
type compiledGraphs []*rts.Compiled

// compileGraphs synthesizes and compiles the application's task graphs at
// their traced durations.
func compileGraphs(app *apps.Profile, seed uint64) compiledGraphs {
	g := make(compiledGraphs, len(app.Regions))
	for ri := range g {
		c, err := rts.Compile(app.RegionGraph(ri, seed))
		if err != nil {
			panic(err) // the application models produce valid graphs
		}
		g[ri] = c
	}
	return g
}

// regionReplay is one simulation's replay of an application's compiled
// graphs: the graphs may be shared, the scheduler scratch and the region
// durations are the simulation's own and are reused at every iteration of
// its fixed point.
type regionReplay struct {
	graphs  compiledGraphs
	scratch rts.Scratch
	durs    []float64
}

// regionGraphs compiles the application's task graphs at seed into a fresh
// replay.
func regionGraphs(app *apps.Profile, seed uint64) *regionReplay {
	return &regionReplay{graphs: compileGraphs(app, seed)}
}

// replayRegions schedules each region's task graph on the node's cores with
// the burst task durations rescaled by the measured lane throughput. It
// returns the makespan-weighted average busy core count and each region's
// makespan; the durations are rr's memory, overwritten by its next replay.
// Runtime dispatch costs stay in wall-clock ns (they come from the trace and
// do not scale with core frequency), reproducing the scheduling bottleneck
// HYDRO hits above 2.5 GHz.
//
// A zero, negative, NaN or infinite lane throughput (a degenerate core
// sample) would turn the scale factor into ±Inf/NaN and poison every
// downstream duration, energy and replay result; it is clamped to the
// reference throughput (scale 1) instead.
func replayRegions(rr *regionReplay, cfg Config, laneThroughput float64) (activeCores float64, durs []float64) {
	if laneThroughput <= 0 || math.IsNaN(laneThroughput) || math.IsInf(laneThroughput, 0) {
		laneThroughput = apps.RefLaneThroughput
	}
	scale := apps.RefLaneThroughput / laneThroughput
	opts := rts.Options{Threads: cfg.Cores, DispatchNs: cfg.DispatchNs, Policy: cfg.RTSPolicy}
	rr.durs = rr.durs[:0]
	var busyNs, totalNs float64
	for _, g := range rr.graphs {
		s := g.Run(opts, scale, &rr.scratch)
		rr.durs = append(rr.durs, s.MakespanNs)
		busyNs += s.AvgActiveThreads() * s.MakespanNs
		totalNs += s.MakespanNs
	}
	if totalNs == 0 {
		return 0, rr.durs
	}
	return busyNs / totalNs, rr.durs
}

// dramVisibleProfile filters an application's locality profile down to the
// regions whose accesses actually reach DRAM (footprints beyond the on-chip
// caches), so the load-latency curve reflects the post-cache address mix
// rather than the raw one. If nothing qualifies, the largest region is kept.
func dramVisibleProfile(p cache.LocalityProfile) cache.LocalityProfile {
	const onChip = 2 * 1024 * 1024 // generous per-core L2+L3 share
	var out cache.LocalityProfile
	largest := 0
	for i, r := range p.Regions {
		if r.Bytes > p.Regions[largest].Bytes {
			largest = i
		}
		if r.Bytes > onChip {
			out.Regions = append(out.Regions, r)
		}
	}
	if len(out.Regions) == 0 {
		out.Regions = append(out.Regions, p.Regions[largest])
	}
	return out
}

// BuildLatencyModel measures the DRAM load-latency curve for an application
// and memory configuration (exported so the DSE driver can cache it).
func BuildLatencyModel(app *apps.Profile, mem dram.Config, policy dram.SchedPolicy, seed uint64) dram.LatencyModel {
	visible := dramVisibleProfile(app.Locality)
	mkSrc := func() dram.AddrSource {
		return cache.NewAddressGen(visible, xrand.New(seed^0xbeef))
	}
	return dram.BuildLatencyModel(mem, policy, mkSrc, 3000, seed)
}

// estimatePower extrapolates the sampled activity to the full per-rank
// execution and runs the power model.
func estimatePower(app *apps.Profile, cfg Config, coreRes cpu.Result, res Result) (power.Breakdown, float64) {
	var act power.Activity
	act.AddCoreResult(coreRes)

	// Scale sample counts to the node's full execution: all cores together
	// execute the rank's total lane work.
	totalLanes := app.LaneWorkPerRank()
	k := totalLanes / float64(coreRes.LaneWork)
	act.Scale(k) // extrapolate core/cache counts; DRAM counts set below
	act.Duration = res.ComputeNs * 1e-9

	// DRAM command profile: one open-loop run at the converged demand gives
	// command-per-request ratios; scale to the full request count.
	totalReqs := float64(coreRes.MemReads+coreRes.MemWrites) * k
	if totalReqs > 0 && act.Duration > 0 {
		src := cache.NewAddressGen(app.Locality, xrand.New(cfg.Seed^0xdead))
		offered := math.Max(res.OfferedBW, 1e6)
		ol := dram.RunOpenLoop(cfg.Mem, cfg.DRAMPolicy, offered, src, 2000, cfg.Seed)
		done := float64(ol.Stats.Reads + ol.Stats.Writes)
		if done > 0 {
			cs := totalReqs / done
			act.DRAM.Act = int64(float64(ol.Stats.Commands.Act) * cs)
			act.DRAM.Pre = int64(float64(ol.Stats.Commands.Pre) * cs)
			act.DRAM.Rd = int64(float64(ol.Stats.Commands.Rd) * cs)
			act.DRAM.Wr = int64(float64(ol.Stats.Commands.Wr) * cs)
		}
		act.DRAM.Ref = int64(act.Duration / 7.8e-6 * float64(cfg.Mem.Channels))
	}

	params := power.NodeParams{
		Cores: cfg.Cores,
		Core: power.CoreParams{
			Config:     cfg.Core,
			VectorBits: cfg.VectorBits,
			FreqGHz:    cfg.FreqGHz,
		},
		L2PerCoreMB: float64(cfg.L2KBPerCore) / 1024,
		L3TotalMB:   float64(cfg.L3MBTotal),
		DIMMs:       cfg.DIMMs(),
	}
	b := power.NodePower(params, act)
	return b, power.EnergyJ(b, act.Duration)
}
