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

	// Artifacts, if non-nil, backs the run's expensive intermediates
	// (hit-rate tables, DRAM latency models, burst traces): the runner consults
	// it before building each one and hands freshly built ones back, so
	// artifacts persist across runs and processes. Reuse is bitwise
	// equivalent to rebuilding — a warm run's measurements are
	// byte-identical to a cold run's. Nil keeps the intermediates run-local.
	Artifacts ArtifactProvider
	// SampleWindows, if non-nil, is the front the run reads its scalar sample
	// windows through and leaves them in for later runs (the client owns one
	// for its lifetime). Nil keeps sample windows run-local. Like Artifacts it
	// changes what a run builds, never what it returns.
	SampleWindows *SampleWindows

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
// (the latency model). The fleet shard planner groups dispatch units by
// it, so this is the one definition of "annotation group" — growing it
// here keeps remote shards exactly as efficient as the local runner.
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
		var tracedIter float64
		for _, spec := range app.Regions {
			tracedIter += spec.LaneWork() / apps.RefLaneThroughput * 1e9
		}
		if tracedIter <= 0 {
			return true
		}
		_, span := obs.StartSpan(pctx, "dse.replay",
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
		art.addCacheGroup(k.app, k.AnnGroup, groups[k][0].NodeConfig(opts.SampleInstrs, opts.WarmupInstrs, opts.Seed))
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

	worker := func() {
		for k := range jobs {
			app := appByName[k.app]
			points := groups[k]
			// The shared annotation is built lazily from the group's first
			// non-cached point: a fully cached group never pays for it.
			var ann *node.Annotation

			ms := make([]Measurement, 0, len(points))
			for _, p := range points {
				if canceled() {
					break
				}
				pctx, psp := obs.StartSpan(ctx, "dse.point",
					obs.A("app", k.app), obs.A("arch", p.Label()))
				if opts.Lookup != nil {
					if m, ok := opts.Lookup(k.app, p); ok {
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
					ann = art.annotation(pctx, app, k.AnnGroup)
				}
				cfg.LatModel = art.latencyModel(pctx, app, p.Channels, p.Mem)
				_, simSpan := obs.StartSpan(pctx, "dse.node-sim")
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
			results <- ms
		}
	}

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

	sort.Slice(all, func(i, j int) bool {
		if all[i].App != all[j].App {
			return all[i].App < all[j].App
		}
		return all[i].Arch.Label() < all[j].Arch.Label()
	})
	return &Dataset{Measurements: all}
}

// compareGroups orders annotation groups by application, then cores, cache
// configuration, width and memory kind: an application's first groups are
// its widths, so the workers fuse and walk different traces side by side.
func compareGroups(a, b annGroupKey) int {
	return cmp.Or(cmp.Compare(a.app, b.app), cmp.Compare(a.Cores, b.Cores),
		cmp.Compare(a.Cache, b.Cache), cmp.Compare(a.Vec, b.Vec), cmp.Compare(a.Mem, b.Mem))
}

// dispatchOrder is the order a run hands its annotation groups to the
// workers: keys, sorted by application, then cores, cache configuration,
// width and memory kind, with each application's first group moved up into
// the previous application's groups. It goes out after every group of the
// previous application that starts a cache walk (its first group of each
// width) and before that application's last two groups, so the next full
// window is generated while the other worker still replays, instead of one
// worker generating it while the other waits for it. Not earlier: the run
// holds one full window at a time, and a walk-starting group handed out after
// the next application's window would regenerate its own; and two windows
// live at once cost peak memory for no time.
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
		at := max(walkEnd(groups)-(len(groups)-len(rest)), len(rest)-2, 0)
		order = append(order, rest[:at]...)
		if a+1 < len(byApp) {
			order = append(order, byApp[a+1][0])
		}
		order = append(order, rest[at:]...)
	}
	return order
}

// walkEnd returns one past the last of an application's groups that starts a
// cache walk: the first group of each width asks for the width's hit-rate
// tables first.
func walkEnd(groups []annGroupKey) int {
	end := 0
	for i, k := range groups {
		if !slices.ContainsFunc(groups[:i], func(o annGroupKey) bool { return o.Vec == k.Vec }) {
			end = i + 1
		}
	}
	return end
}
