package dse

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"musa/internal/apps"
	"musa/internal/net"
	"musa/internal/node"
	"musa/internal/obs"
	"musa/internal/power"
)

// ClusterStat is the cluster-level outcome of one MPI replay: the node
// measurement's burst trace rescaled by the measured node speedup and
// replayed across Ranks MPI ranks against the network model.
type ClusterStat struct {
	Ranks       int
	EndToEndNs  float64 // full-application makespan across all ranks
	MPIFraction float64 // mean fraction of the run spent in MPI
	ParallelEff float64 // mean(compute)/makespan across ranks
}

// Measurement is one (application, configuration) simulation outcome.
type Measurement struct {
	App  string
	Arch ArchPoint

	// TimeNs is the per-rank compute time of the full traced execution —
	// the performance metric every figure normalizes.
	TimeNs float64
	// IPC is the sampled core's retired instructions per cycle.
	IPC float64
	// Power is the average node power breakdown during compute.
	Power power.Breakdown
	// EnergyJ is node energy-to-solution over the compute phase.
	EnergyJ float64

	L1MPKI, L2MPKI, L3MPKI float64
	// GMemReqPerSec is the node DRAM request rate (Fig. 1).
	GMemReqPerSec float64
	ActiveCores   float64
	MemLatencyNs  float64
	OfferedBW     float64

	// Cluster holds the MPI-replay outcome at each configured rank count
	// (ascending; empty when the replay stage is disabled).
	Cluster []ClusterStat `json:",omitempty"`
	// EndToEndNs / MPIFraction / ParallelEff mirror the Cluster entry at
	// the largest replayed rank count — the paper's 256-rank full-app
	// metric (zero when the replay stage is disabled).
	EndToEndNs  float64
	MPIFraction float64
	ParallelEff float64
}

// DefaultReplayRanks is the default rank-count axis of the cluster stage:
// one mid-size job and the paper's 256-rank full-application replay.
func DefaultReplayRanks() []int { return []int{64, 256} }

// MaxReplayRanks bounds the per-replay rank count accepted from external
// input (flags, HTTP requests): a 4096-rank burst trace is the largest the
// replay stage synthesizes in reasonable time and memory.
const MaxReplayRanks = 4096

// ValidateReplayRanks checks a cluster-stage rank-count list from external
// input: at most 16 entries, each in [2, MaxReplayRanks].
func ValidateReplayRanks(ranks []int) error {
	if len(ranks) > 16 {
		return fmt.Errorf("dse: %d replay rank counts (max 16)", len(ranks))
	}
	for _, n := range ranks {
		if n < 2 || n > MaxReplayRanks {
			return fmt.Errorf("dse: replay rank count %d out of range [2, %d]", n, MaxReplayRanks)
		}
	}
	return nil
}

// ReplayConfig configures the cluster-level MPI replay that follows each
// node-level measurement.
type ReplayConfig struct {
	// Disable skips the replay stage entirely (node-only sweep).
	Disable bool
	// Ranks are the MPI rank counts replayed per point
	// (nil = DefaultReplayRanks).
	Ranks []int
	// Network is the interconnect model (zero value = net.MareNostrum4()).
	Network net.Model
}

// Normalized returns the canonical form of the config: defaults applied,
// rank counts sorted ascending, and everything zeroed when disabled. The
// result store hashes the normalized form into its request keys.
func (c ReplayConfig) Normalized() ReplayConfig {
	if c.Disable || (c.Ranks != nil && len(c.Ranks) == 0) {
		// An explicit empty rank list means "no replays" too.
		return ReplayConfig{Disable: true}
	}
	if c.Ranks == nil {
		c.Ranks = DefaultReplayRanks()
	} else {
		// Sorted and deduplicated: replaying the same rank count twice is
		// pure waste, and the result store hashes the canonical list.
		c.Ranks = append([]int(nil), c.Ranks...)
		slices.Sort(c.Ranks)
		c.Ranks = slices.Compact(c.Ranks)
	}
	if c.Network == (net.Model{}) {
		c.Network = net.MareNostrum4()
	}
	return c
}

// Options configures a sweep run.
type Options struct {
	// Apps to simulate; nil means all five.
	Apps []*apps.Profile
	// Points to sweep; nil means the full 864-point Table I grid.
	Points []ArchPoint
	// SampleInstrs / WarmupInstrs override the detailed-sample sizes
	// (zero = package defaults). Tests use small values; the cmd tools and
	// benches use the defaults.
	SampleInstrs int64
	WarmupInstrs int64
	Workers      int
	Seed         uint64
	// Progress, if non-nil, receives completed measurement counts. Calls
	// are serialized: implementations may write to shared state or an
	// output stream without their own locking.
	Progress func(done, total int)

	// Lookup, if non-nil, is consulted before each point is simulated; on a
	// hit the returned measurement is reused and the point is not
	// recomputed. This is the result-store read path. Called concurrently
	// from workers.
	Lookup func(app string, p ArchPoint) (Measurement, bool)
	// OnMeasurement, if non-nil, receives each freshly simulated
	// measurement as soon as it completes (Lookup hits are not reported) —
	// the incremental-checkpoint write path. Called concurrently from
	// workers.
	OnMeasurement func(m Measurement)
	// Remote, if non-nil, gets one attempt at each annotation group's
	// points that Lookup does not hold, before the worker simulates any of
	// them: it computes them somewhere else and returns one measurement per
	// point, or false, and the worker simulates the group itself. What it
	// returns is counted and merged like a simulated point but not passed
	// to OnMeasurement: the hook keeps its own. Called concurrently from
	// workers; only a distributed sweep sets it.
	Remote func(ctx context.Context, app string, points []ArchPoint) ([]Measurement, bool)

	// Artifacts, if non-nil, backs the run's expensive intermediates
	// (hit-rate tables, DRAM latency models, burst traces): the runner consults
	// it before building each one and hands freshly built ones back, so
	// artifacts persist across runs and processes. Reuse is bitwise
	// equivalent to rebuilding — a warm run's measurements are
	// byte-identical to a cold run's. Nil keeps the intermediates run-local.
	Artifacts ArtifactProvider
	// SampleWindows, if non-nil, is the front the run reads its sample
	// windows' checkpoints through and leaves them in for later runs (the
	// client owns one for its lifetime). Nil keeps them run-local. Like
	// Artifacts it changes what a run builds, never what it returns.
	SampleWindows *SampleWindows
	// Scratch, if non-nil, is the storage the run recycles its columns
	// through and leaves what it is done with in for later runs (the client
	// owns one for its lifetime; node.Scratch.EndRun bounds what stays). Nil
	// gives the run its own. Like SampleWindows it changes what a run
	// allocates, never what it returns.
	Scratch *node.Scratch

	// Replay configures the cluster-level MPI replay appended to every
	// measurement (zero value = replay at 64 and 256 ranks against the
	// MareNostrum4 model).
	Replay ReplayConfig
}

func (o *Options) fill() {
	if o.Apps == nil {
		o.Apps = apps.All()
	}
	if o.Points == nil {
		o.Points = Enumerate()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	o.Replay = o.Replay.Normalized()
}

// Dataset is the collected sweep output.
type Dataset struct {
	Measurements []Measurement
	byAppOnce    sync.Once
	byApp        map[string][]Measurement
}

// ByApp returns the measurements for one application. The per-app index is
// built on first use under a sync.Once, so concurrent readers (e.g. figure
// goroutines aggregating different applications) are safe.
func (d *Dataset) ByApp(app string) []Measurement {
	d.byAppOnce.Do(func() {
		d.byApp = map[string][]Measurement{}
		for _, m := range d.Measurements {
			d.byApp[m.App] = append(d.byApp[m.App], m)
		}
	})
	return d.byApp[app]
}

// AnnGroup identifies configurations that share cache behavior and can
// therefore share one annotation pass: same core count (L3 partition),
// vector width (fused footprints), cache configuration and memory kind
// (the latency model). A distributed sweep hands Options.Remote one group
// at a time, so this is the one definition of "annotation group" — growing
// it here keeps remote work exactly as efficient as the local runner.
type AnnGroup struct {
	Cores int
	Vec   int
	Cache string
	Mem   MemKind
}

// AnnGroup returns the point's annotation-group signature.
func (p ArchPoint) AnnGroup() AnnGroup {
	return AnnGroup{Cores: p.Cores, Vec: p.VectorBits, Cache: p.Cache.Label, Mem: p.Mem}
}

// annGroupKey scopes an annotation group to one application.
type annGroupKey struct {
	app string
	AnnGroup
}

// Run executes the sweep in parallel and returns the dataset, sorted
// deterministically (by app, then arch label). Canceling ctx aborts the
// sweep: workers finish the point in flight, skip the rest, and Run returns
// the partial dataset (combined with OnMeasurement checkpointing, a
// canceled sweep resumes where it left off). The caller observes the
// cancellation through ctx.Err().
func Run(ctx context.Context, opts Options) *Dataset {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.fill()

	// The sweep's root span: every pipeline-stage span below parents under
	// it, so a -trace-out dump shows the whole run as one tree. The point
	// total is attached once the groups are known.
	ctx, runSpan := obs.StartSpan(ctx, "dse.run",
		obs.AInt("apps", len(opts.Apps)), obs.AInt("workers", opts.Workers))
	defer runSpan.End()

	// The run-local artifact front: DRAM latency models per (app, channels,
	// mem kind) and one compiled burst trace per (app, ranks) are shared
	// across the whole sweep — replay only reads the program, so every
	// worker replays the same instance with a per-point compute scale. With
	// opts.Artifacts set, the front is additionally backed by the
	// cross-run provider.
	art := newRunArtifacts(opts)

	// clusterStage fills the cluster-level fields of m: the burst trace's
	// compute durations are rescaled by the measured node speedup (the
	// multi-scale handoff of paper §II) and replayed at every configured
	// rank count. It reports false when ctx was canceled mid-replay — the
	// partially replayed measurement must be dropped, not checkpointed.
	clusterStage := func(pctx context.Context, m *Measurement, app *apps.Profile, res node.Result) bool {
		tracedIter := app.TracedIterationNs()
		if tracedIter <= 0 {
			return true
		}
		span := obs.StartLeaf(pctx, "dse.replay",
			obs.AInt("rankCounts", len(opts.Replay.Ranks)))
		start := time.Now()
		defer func() { observeStage(StageReplay, start); span.End() }()
		scale := res.IterationNs / tracedIter
		rescale := func(rank int, traced float64) float64 { return traced * scale }
		m.Cluster = make([]ClusterStat, 0, len(opts.Replay.Ranks))
		for _, ranks := range opts.Replay.Ranks {
			rep, err := art.burst(pctx, app, ranks).Replay(ctx, opts.Replay.Network, rescale)
			if err != nil {
				return false
			}
			m.Cluster = append(m.Cluster, ClusterStat{
				Ranks:       ranks,
				EndToEndNs:  rep.MakespanNs,
				MPIFraction: rep.MPIFraction(),
				ParallelEff: rep.AvgParallelEfficiency(),
			})
		}
		// Ranks are sorted ascending; mirror the largest replay.
		last := m.Cluster[len(m.Cluster)-1]
		m.EndToEndNs = last.EndToEndNs
		m.MPIFraction = last.MPIFraction
		m.ParallelEff = last.ParallelEff
		return true
	}

	// Group points by annotation key.
	groups := map[annGroupKey][]ArchPoint{}
	appByName := map[string]*apps.Profile{}
	for _, a := range opts.Apps {
		appByName[a.Name] = a
		for _, p := range opts.Points {
			k := annGroupKey{a.Name, p.AnnGroup()}
			groups[k] = append(groups[k], p)
		}
	}
	keys := make([]annGroupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareGroups)
	for _, k := range keys {
		art.addGroup(k.app, k.AnnGroup, groups[k][0].NodeConfig(opts.SampleInstrs, opts.WarmupInstrs, opts.Seed))
	}

	total := 0
	for _, k := range keys {
		total += len(groups[k])
	}
	runSpan.SetAttr("points", fmt.Sprint(total))

	jobs := make(chan annGroupKey)
	results := make(chan []Measurement)
	var done int
	var doneMu sync.Mutex

	canceled := func() bool { return ctx.Err() != nil }
	bump := func() {
		// The counter advances whether or not anyone listens, so every
		// consumer (Progress today, artifact-cache statistics and /stats
		// tomorrow) sees the same correct count. The callback runs under
		// the lock so Progress calls are serialized and monotonic for the
		// consumer.
		doneMu.Lock()
		done++
		if opts.Progress != nil {
			opts.Progress(done, total)
		}
		doneMu.Unlock()
	}

	// remote gives the group's points that Lookup does not hold their one
	// attempt at opts.Remote, appending what it serves to ms. It returns
	// the points still to simulate here: none when the attempt succeeded.
	remote := func(k annGroupKey, points []ArchPoint, ms []Measurement) ([]ArchPoint, []Measurement) {
		var misses []ArchPoint
		for _, p := range points {
			if opts.Lookup != nil {
				if m, ok := opts.Lookup(k.app, p); ok {
					ms = append(ms, m)
					countPoint("cached")
					bump()
					continue
				}
			}
			misses = append(misses, p)
		}
		if len(misses) == 0 || canceled() {
			return nil, ms
		}
		rms, ok := opts.Remote(ctx, k.app, misses)
		if !ok {
			return misses, ms
		}
		for range rms {
			countPoint("remote")
			bump()
		}
		return nil, append(ms, rms...)
	}

	var workers sync.WaitGroup
	worker := func() {
		defer workers.Done()
		// ops is the op column this worker compiles each group's annotation
		// into: the scratch's at first, then the previous group's, whose
		// points are all simulated. It goes back to the scratch when the
		// worker exits. memo is the worker's timing memo, emptied for each
		// group's annotation.
		ops := art.scratch.Ops()
		defer func() { art.scratch.ReleaseOps(ops) }()
		memo := node.NewTimingMemo()
		for k := range jobs {
			app := appByName[k.app]
			points := groups[k]
			// The shared annotation is built lazily from the group's first
			// non-cached point: a fully cached group never pays for it.
			var ann *node.Annotation

			ms := make([]Measurement, 0, len(points))
			lookup := opts.Lookup
			if opts.Remote != nil {
				points, ms = remote(k, points, ms)
				lookup = nil // remote looked every point up
			}
			for _, p := range points {
				if canceled() {
					break
				}
				pctx, psp := obs.StartSpan(ctx, "dse.point",
					obs.A("app", k.app), obs.A("arch", p.Label()))
				if lookup != nil {
					if m, ok := lookup(k.app, p); ok {
						ms = append(ms, m)
						countPoint("cached")
						psp.SetAttr("result", "cached")
						psp.End()
						bump()
						continue
					}
				}
				cfg := p.NodeConfig(opts.SampleInstrs, opts.WarmupInstrs, opts.Seed)
				if ann == nil {
					memo.Reset()
					ann = art.annotation(pctx, app, k.AnnGroup, ops)
					ann.Memo = memo
					ops = ann.Ann.Ops
				}
				cfg.LatModel = art.latencyModel(pctx, app, p.Channels, p.Mem)
				simSpan := obs.StartLeaf(pctx, "dse.node-sim")
				simStart := time.Now()
				res := node.SimulateAnnotated(app, cfg, *ann)
				observeStage(StageNodeSim, simStart)
				observeFixedPoint(res.Iterations, res.Replays, res.Converged)
				simSpan.End()
				l1, l2, l3 := res.MPKI()
				m := Measurement{
					App:           app.Name,
					Arch:          p,
					TimeNs:        res.ComputeNs,
					IPC:           res.CoreRes.IPC(),
					Power:         res.Power,
					EnergyJ:       res.EnergyJ,
					L1MPKI:        l1,
					L2MPKI:        l2,
					L3MPKI:        l3,
					GMemReqPerSec: res.GMemReqPerSec,
					ActiveCores:   res.AvgActiveCores,
					MemLatencyNs:  res.MemLatencyNs,
					OfferedBW:     res.OfferedBW,
				}
				if !opts.Replay.Disable && !clusterStage(pctx, &m, app, res) {
					psp.End()
					break // canceled mid-replay: drop the partial point
				}
				countPoint("simulated")
				psp.SetAttr("result", "simulated")
				psp.End()
				ms = append(ms, m)
				if opts.OnMeasurement != nil {
					opts.OnMeasurement(m)
				}
				bump()
			}
			art.groupDone(k.app)
			results <- ms
		}
	}

	workers.Add(opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		go worker()
	}
	go func() {
		for _, k := range dispatchOrder(keys) {
			jobs <- k
		}
		close(jobs)
	}()

	var all []Measurement
	for range keys {
		all = append(all, <-results...)
	}

	sortMeasurements(all)
	workers.Wait() // every op column is back in the scratch
	art.endRun(runSpan)
	return &Dataset{Measurements: all}
}

// sortMeasurements orders ms by application, then architecture label: the
// order of every dataset Run returns. Each label is built once, not twice
// per comparison; the (label, measurement) pairs see the comparisons the
// measurements would, so a tie lands where it did.
func sortMeasurements(ms []Measurement) {
	type labeled struct {
		label string
		m     Measurement
	}
	ls := make([]labeled, len(ms))
	for i := range ms {
		ls[i] = labeled{ms[i].Arch.Label(), ms[i]}
	}
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].m.App != ls[j].m.App {
			return ls[i].m.App < ls[j].m.App
		}
		return ls[i].label < ls[j].label
	})
	for i := range ls {
		ms[i] = ls[i].m
	}
}

// compareGroups orders annotation groups by application, then cores, cache
// configuration, width and memory kind.
func compareGroups(a, b annGroupKey) int {
	return cmp.Or(cmp.Compare(a.app, b.app), cmp.Compare(a.Cores, b.Cores),
		cmp.Compare(a.Cache, b.Cache), cmp.Compare(a.Vec, b.Vec), cmp.Compare(a.Mem, b.Mem))
}

// dispatchOrder is the order a run hands its annotation groups to the
// workers: keys, sorted by application, then cores, cache configuration,
// width and memory kind, with each application's first group moved up to
// just before the previous application's last two groups. An application's
// first group runs its cold pass, which every other group of the application
// waits for; moved up, the pass runs while the other worker still replays,
// instead of one worker running it while the other waits. Not earlier: each
// application live at once holds its fused traces and hit-rate tables.
func dispatchOrder(keys []annGroupKey) []annGroupKey {
	var byApp [][]annGroupKey
	for i, j := 0, 0; i < len(keys); i = j {
		for j = i + 1; j < len(keys) && keys[j].app == keys[i].app; j++ {
		}
		byApp = append(byApp, keys[i:j])
	}
	order := make([]annGroupKey, 0, len(keys))
	for a, groups := range byApp {
		rest := groups // the groups still to place
		if a > 0 {
			rest = groups[1:] // the first went out with the previous application
		}
		at := max(len(rest)-2, 0)
		order = append(order, rest[:at]...)
		if a+1 < len(byApp) {
			order = append(order, byApp[a+1][0])
		}
		order = append(order, rest[at:]...)
	}
	return order
}
