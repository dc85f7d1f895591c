package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math/rand/v2"
	"os"
	"sync/atomic"
	"time"

	"musa"
	"musa/internal/dse"
	"musa/internal/obs"
)

// fidelity is the detailed-sample size of every simulation of a workload.
type fidelity struct{ sample, warmup int64 }

// Fixed for every workload: no flag or environment variable changes them, so
// two runs differ only in -seed. The constants do not follow nproc: op
// concurrency is the same on every machine.
const (
	sweepWorkers = 2
	maxJobs      = 2
	connections  = 2
	simSeed      = 1
	network      = "mn4"
	admitLimit   = 8
	admitQueue   = 64
)

var replayRanks = []int{64}

// scale sizes a run. production is what the command line runs; the smoke
// test shrinks fidelity and counts so every workload finishes in a second
// or two while executing the same code.
type scale struct {
	fid     fidelity // sweeps, and the priming sweep of serve-hit
	ringFid fidelity // serve-ring-mix replicas (a miss costs about 15 ms)
	// primeAll primes serve-hit with the full 864-point grid of all five
	// applications (4320 keys, more than the store's 4096-entry front);
	// otherwise with the 360-point slice.
	primeAll bool
	// setupRepeats is how often a workload sets up, per workload name; the
	// reported setup_s is the median. serve-hit's set-up is itself an 11 s,
	// 4320-point sweep, so it runs once.
	setupRepeats map[string]int
	hitWarmup    int // untimed serve-hit requests before the first block
	hitBlock     int // requests per serve-hit block, over both connections (a sixth of a second)
	ringBlock    int // requests per connection per serve-ring-mix block
	ringNewKeys  int // never-seen keys each serve-ring-mix block introduces
	minBlocks    int // a timed phase never has fewer blocks than this
	ladderReps   int // iterations of each microsecond-scale ladder rung
	// golden holds the expected dataset digests; nil checks only that every
	// op of the run produced the same bytes.
	golden map[string]string
}

//go:embed golden.json
var goldenJSON []byte

func productionScale() (scale, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return scale{}, fmt.Errorf("benchmark: golden.json: %w", err)
	}
	return scale{
		fid:          fidelity{120000, 700000},
		ringFid:      fidelity{20000, 100000},
		primeAll:     true,
		setupRepeats: map[string]int{"sweep-cold": 3, "sweep-warm": 3, "serve-hit": 1, "serve-ring-mix": 3},
		hitWarmup:    5000,
		hitBlock:     2500,
		ringBlock:    2500,
		ringNewKeys:  10,
		minBlocks:    2,
		ladderReps:   1000,
		golden:       g,
	}, nil
}

// Golden digest names.
const (
	goldenSweep = "sweep360"  // the 360-point op both sweeps run
	goldenPrime = "prime4320" // the priming sweep of serve-hit
)

// config is one run of one workload.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // length of the timed phase
	traced   bool
	tmpRoot  string // temp dirs are made (and removed) under here
	traceOut string // span file of a traced run
	sc       scale
}

// workloads maps each workload name to its implementation.
var workloads = map[string]func(*env) (*result, error){
	"sweep-cold":     func(e *env) (*result, error) { return runSweep(e, false) },
	"sweep-warm":     func(e *env) (*result, error) { return runSweep(e, true) },
	"serve-hit":      runServeHit,
	"serve-ring-mix": runServeRingMix,
}

var workloadOrder = []string{"sweep-cold", "sweep-warm", "serve-hit", "serve-ring-mix"}

// env is the state one workload run owns: its config, its temp directory
// and, when traced, the span recorder.
type env struct {
	cfg   config
	tmp   string
	rec   *recorder
	rng   *rand.Rand
	probe *hostProbe   // read between the blocks of every timed phase
	ops   atomic.Int64 // op identifiers handed out so far

	// The fingerprint of the seeded request sequence: every request of the
	// set-up and of the first minBlocks timed blocks, so that runs of
	// different length under one seed agree on it.
	fp     hash.Hash
	fpLeft int
}

// foldInto returns where the requests of the next block are hashed: the
// fingerprint, or nowhere once enough timed blocks are in it.
func (e *env) foldInto(timed bool) io.Writer {
	if timed {
		if e.fpLeft == 0 {
			return io.Discard
		}
		e.fpLeft--
	}
	return e.fp
}

// nextOp returns a fresh op identifier for the spans of one op.
func (e *env) nextOp() int { return int(e.ops.Add(1)) }

// runWorkload runs one workload under a private temp directory that is
// removed on every exit path, and writes the span file of a traced run.
func runWorkload(cfg config) (*result, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("benchmark: unknown workload %q (have %v)", cfg.workload, workloadOrder)
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, fmt.Errorf("benchmark: temp root: %w", err)
	}
	tmp, err := os.MkdirTemp(cfg.tmpRoot, cfg.workload+"-")
	if err != nil {
		return nil, fmt.Errorf("benchmark: temp dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	e := &env{cfg: cfg, tmp: tmp, fp: sha256.New(), fpLeft: cfg.sc.minBlocks,
		rng: rand.New(rand.NewPCG(cfg.seed, 0x6d757361))}
	if cfg.traced {
		e.rec = newRecorder()
	}
	if e.probe, err = newHostProbe(); err != nil {
		return nil, fmt.Errorf("benchmark: host probe: %w", err)
	}
	defer e.probe.close()
	res, err := run(e)
	if err != nil {
		return nil, fmt.Errorf("benchmark: %s: %w", cfg.workload, err)
	}
	res.workload, res.seed, res.traced = cfg.workload, cfg.seed, cfg.traced
	res.sequenceSHA = hex.EncodeToString(e.fp.Sum(nil))
	if cfg.traced {
		spans := e.rec.snapshot()
		if err := checkSpanTree(spans); err != nil {
			return nil, fmt.Errorf("benchmark: %s: span tree: %w", cfg.workload, err)
		}
		if cfg.traceOut != "" {
			if err := e.rec.writeNDJSON(cfg.traceOut); err != nil {
				return nil, fmt.Errorf("benchmark: %s: span file: %w", cfg.workload, err)
			}
		}
	}
	return res, nil
}

// phaseLengths returns how long the untraced and the traced timed phase of
// this run last. An untraced run measures for the whole of -seconds; a
// traced run times a tenth untraced and a fifth traced, whose p50 ratio is
// trace.overhead_share, and reports no end-to-end metric.
func (e *env) phaseLengths() (untraced, traced time.Duration) {
	full := time.Duration(e.cfg.seconds * float64(time.Second))
	if !e.cfg.traced {
		return full, 0
	}
	return full / 10, full / 5
}

// clientOptions are the options every client of the benchmark shares.
func clientOptions(fid fidelity, cacheDir string) musa.ClientOptions {
	return musa.ClientOptions{
		CacheDir:     cacheDir,
		SweepWorkers: sweepWorkers,
		MaxJobs:      maxJobs,
		SampleInstrs: fid.sample,
		WarmupInstrs: fid.warmup,
		Seed:         simSeed,
		ReplayRanks:  replayRanks,
		Network:      network,
	}
}

// sliceIndices are the Table I indices of the 64-core 2 GHz slice: 72
// points, 360 with all five applications.
func sliceIndices() ([]int, error) {
	var idx []int
	for i := 0; i < musa.PointCount(); i++ {
		a, err := musa.PointArch(i)
		if err != nil {
			return nil, err
		}
		if a.Cores == 64 && a.FreqGHz == 2.0 {
			idx = append(idx, i)
		}
	}
	return idx, nil
}

func appNames() []string {
	var names []string
	for _, a := range musa.Applications() {
		names = append(names, a.Name)
	}
	return names
}

// datasetDigest is the TestGoldenReducedSweepDigest recipe: SHA-256 over
// each measurement's JSON encoding and a newline, in dataset order.
func datasetDigest(ms []musa.Measurement) (string, error) {
	h := sha256.New()
	for _, m := range ms {
		b, err := json.Marshal(m)
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte("\n"))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// digestChecker compares dataset digests against the golden one, or, with
// no golden digest, against the first digest it saw.
type digestChecker struct {
	name string
	want string
}

func newDigestChecker(sc scale, name string) *digestChecker {
	return &digestChecker{name: name, want: sc.golden[name]}
}

func (d *digestChecker) check(ms []musa.Measurement) error {
	got, err := datasetDigest(ms)
	if err != nil {
		return err
	}
	if d.want == "" {
		d.want = got
	}
	if got != d.want {
		return fmt.Errorf("dataset %s: digest %s, want %s", d.name, got, d.want)
	}
	return nil
}

// nodeKeyOf is the result-store key of one (application, grid point) at the
// benchmark's fixed fidelity and replay settings: a node experiment's Key.
func nodeKeyOf(app string, point int, fid fidelity) (string, error) {
	return musa.Experiment{
		Kind: musa.KindNode, App: app, PointIndex: &point,
		Sample: fid.sample, Warmup: fid.warmup, Seed: simSeed,
		ReplayRanks: replayRanks, Network: network,
	}.Key()
}

// stageCounts reads the observation count of every dse pipeline stage from
// the process registry; callers work with deltas.
func stageCounts() map[string]float64 {
	out := map[string]float64{}
	for _, f := range obs.DefaultRegistry().Snapshot() {
		if f.Name != dse.StageMetric {
			continue
		}
		for _, s := range f.Series {
			for _, l := range s.Labels {
				if l.Name == "stage" {
					out[l.Value] = float64(s.Count)
				}
			}
		}
	}
	return out
}

// stageMetricNames maps a dse stage onto its per-layer metric.
var stageMetricNames = map[string]string{
	dse.StageFuse:           "dse.builds_fuse",
	dse.StageAnnotate:       "dse.builds_annotate",
	dse.StageLatencyFit:     "dse.builds_latency_fit",
	dse.StageBurstSynthesis: "dse.builds_burst",
	dse.StageNodeSim:        "dse.node_sims",
	dse.StageReplay:         "dse.replays",
}

// counterSum sums every series of a counter family whose labels include
// want, over the given registries.
func counterSum(regs []*obs.Registry, name string, want ...obs.Label) float64 {
	var sum float64
	for _, reg := range regs {
		for _, f := range reg.Snapshot() {
			if f.Name != name {
				continue
			}
		series:
			for _, s := range f.Series {
				for _, w := range want {
					found := false
					for _, l := range s.Labels {
						found = found || l == w
					}
					if !found {
						continue series
					}
				}
				sum += s.Value
			}
		}
	}
	return sum
}

// counters is a snapshot of everything the program's clients and serve
// handlers count; per-layer metrics are deltas between two snapshots.
type counters struct {
	stats  musa.ClientStats
	engine engineCounters
	stages map[string]float64

	artifactHits, artifactMisses, artifactBytesRead int64
	ringLocal, ringProxied, ringFallback, shed      float64
}

// engineCounters are the LSM counters summed over the clients' stores.
type engineCounters struct {
	gets, memtableHits, segmentReads, cacheHits, cacheMisses int64
	bloomFalsePositives, flushes, compactions, walBytes      int64
	compactionSecs                                           float64
}

// readCounters sums the counters of the given clients and handler
// registries.
func readCounters(clients []*musa.Client, regs []*obs.Registry) counters {
	var c counters
	for _, cl := range clients {
		snap := cl.Snapshot()
		s := snap.Stats
		c.stats.Requests += s.Requests
		c.stats.StoreHits += s.StoreHits
		c.stats.Coalesced += s.Coalesced
		c.stats.Simulated += s.Simulated
		c.stats.PeerArtifactsFetched += s.PeerArtifactsFetched
		c.stats.PeerArtifactMisses += s.PeerArtifactMisses
		c.stats.PeerArtifactsReplicated += s.PeerArtifactsReplicated
		en := snap.Store.Engine
		c.engine.gets += en.Gets
		c.engine.memtableHits += en.MemtableHits
		c.engine.segmentReads += en.SegmentReads
		c.engine.cacheHits += en.BlockCacheHits
		c.engine.cacheMisses += en.BlockCacheMiss
		c.engine.bloomFalsePositives += en.BloomFalsePositives
		c.engine.flushes += en.Flushes
		c.engine.compactions += en.Compactions
		c.engine.walBytes += en.WALBytes
		c.engine.compactionSecs += en.CompactionSecs
		a := snap.Artifacts.Stats
		c.artifactHits += a.HitRates.Hits + a.LatencyModels.Hits + a.Bursts.Hits
		c.artifactMisses += a.HitRates.Misses + a.LatencyModels.Misses + a.Bursts.Misses
		c.artifactBytesRead += a.BytesRead
	}
	c.stages = stageCounts()
	const owner = "musa_ring_owner_requests_total"
	c.ringLocal = counterSum(regs, owner, obs.L("result", "local"))
	c.ringProxied = counterSum(regs, owner, obs.L("result", "proxied"))
	c.ringFallback = counterSum(regs, owner, obs.L("result", "fallback"))
	c.shed = counterSum(regs, "musa_serve_shed_total")
	return c
}

// counterLayers fills the per-layer metrics that are counter deltas between
// two snapshots. Stage counts are per op.
func counterLayers(m metrics, a, b counters, ops int) {
	d := func(x, y int64) float64 { return float64(y - x) }
	m["client.requests"] = d(a.stats.Requests, b.stats.Requests)
	m["client.store_hits"] = d(a.stats.StoreHits, b.stats.StoreHits)
	m["client.coalesced"] = d(a.stats.Coalesced, b.stats.Coalesced)
	m["client.simulated"] = d(a.stats.Simulated, b.stats.Simulated)
	m["ring.peer_artifacts_fetched"] = d(a.stats.PeerArtifactsFetched, b.stats.PeerArtifactsFetched)
	m["ring.peer_artifact_misses"] = d(a.stats.PeerArtifactMisses, b.stats.PeerArtifactMisses)
	m["ring.peer_artifacts_replicated"] = d(a.stats.PeerArtifactsReplicated, b.stats.PeerArtifactsReplicated)

	m["lsm.gets"] = d(a.engine.gets, b.engine.gets)
	m["lsm.memtable_hits"] = d(a.engine.memtableHits, b.engine.memtableHits)
	m["lsm.segment_reads"] = d(a.engine.segmentReads, b.engine.segmentReads)
	m["lsm.bloom_false_positives"] = d(a.engine.bloomFalsePositives, b.engine.bloomFalsePositives)
	m["lsm.flushes"] = d(a.engine.flushes, b.engine.flushes)
	m["lsm.compactions"] = d(a.engine.compactions, b.engine.compactions)
	m["lsm.compaction_s"] = b.engine.compactionSecs - a.engine.compactionSecs
	m["lsm.wal_bytes"] = d(a.engine.walBytes, b.engine.walBytes)
	m["lsm.block_cache_hit_share"] = share(d(a.engine.cacheHits, b.engine.cacheHits),
		d(a.engine.cacheHits, b.engine.cacheHits)+d(a.engine.cacheMisses, b.engine.cacheMisses))
	// The engine is read only when the decoded front misses.
	m["store.front_hit_share"] = 0
	if hits := m["client.store_hits"]; hits > 0 {
		m["store.front_hit_share"] = 1 - m["lsm.gets"]/hits
	}

	m["store.artifact_hits"] = d(a.artifactHits, b.artifactHits)
	m["store.artifact_misses"] = d(a.artifactMisses, b.artifactMisses)
	m["store.artifact_bytes_read"] = d(a.artifactBytesRead, b.artifactBytesRead)

	for stage, name := range stageMetricNames {
		m[name] = (b.stages[stage] - a.stages[stage]) / float64(max(ops, 1))
	}

	m["ring.owner_local"] = b.ringLocal - a.ringLocal
	m["ring.owner_proxied"] = b.ringProxied - a.ringProxied
	m["ring.owner_fallback"] = b.ringFallback - a.ringFallback
	m["serve.proxied_share"] = share(m["ring.owner_proxied"],
		m["ring.owner_local"]+m["ring.owner_proxied"]+m["ring.owner_fallback"])
	m["serve.shed"] = b.shed - a.shed
	m["serve.proxy_hop_us"] = 0 // only serve-ring-mix crosses the ring; it overwrites this
}

// share is part/whole, 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
