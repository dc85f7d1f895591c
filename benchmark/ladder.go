package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"musa"
	"musa/internal/apps"
	"musa/internal/cache"
	"musa/internal/cpu"
	"musa/internal/dram"
	"musa/internal/dse"
	"musa/internal/net"
	"musa/internal/node"
	"musa/internal/obs"
	"musa/internal/serve"
	"musa/internal/store"
	"musa/internal/trace"
	"musa/internal/xrand"
)

// The ladder replays one op's work rung by rung through the program's public
// functions, each call under a span of the benchmark's own recorder, on the
// inputs the workload itself uses. The request rungs (decode, normalize and
// key, ring order, store, encode, handler, loopback) run on a store holding
// the workload's measurements; the simulation rungs rebuild what dse.Run
// builds for the given applications and points, one after another on one
// goroutine, sharing fused traces, annotations and timing memos exactly as
// the sweep runner does.

// ladderInput is what a workload hands the ladder.
type ladderInput struct {
	fid       fidelity
	items     []item   // measurements for the store fixture and the requests that hit them
	simApps   []string // the simulation rungs run for these applications
	simPoints []int    // over these grid points
}

// ladder is a ladder run in progress.
type ladder struct {
	e    *env
	op   int
	root int
	// ms sums the duration of every span of one name; calls counts the
	// calls those spans covered (a microsecond-scale rung loops inside one
	// span).
	ms    map[string]float64
	calls map[string]float64
	m     metrics // unit metrics that are not a plain per-call mean
	table []ladderRow
}

// span runs fn under a span named name that covers n calls.
func (l *ladder) span(parent int, name string, n int, fn func() error) error {
	id := l.e.rec.start(parent, l.op, name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	l.e.rec.end(id)
	l.ms[name] += float64(d.Nanoseconds()) / 1e6
	l.calls[name] += float64(n)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// perCallMs is the mean duration of one call of the named rung.
func (l *ladder) perCallMs(name string) float64 {
	return share(l.ms[name], l.calls[name])
}

// opMs is the time one op spends in the named rungs, by the ladder's count.
func (l *ladder) opMs(rungs []string) float64 {
	var sum float64
	for _, r := range rungs {
		sum += l.ms[r]
	}
	return sum
}

// fill writes the ladder's per-layer metrics.
func (l *ladder) fill(m metrics) {
	us := func(name string) float64 { return l.perCallMs(name) * 1e3 }
	m["experiment.decode_us"] = us("json.Unmarshal")
	m["experiment.normalize_key_us"] = us("Experiment.Normalize+Key")
	m["ring.order_ns"] = us("Ring.Order") * 1e3
	m["store.put_us"] = us("store.Put")
	m["store.get_front_us"] = us("store.Get.front")
	m["store.get_engine_us"] = us("store.Get.engine")
	m["lsm.reopen_ms"] = l.perCallMs("store.Open")
	m["client.run_hit_us"] = us("client.Run.hit")
	m["serve.handler_hit_us"] = us("serve.Handler.hit")
	m["serve.encode_us"] = us("json.Marshal")
	m["obs.span_ns"] = us("obs.StartSpan") * 1e3
	m["client.run_cold_node_ms"] = l.perCallMs("client.Run.cold")

	m["node.scalar_trace_ms"] = l.perCallMs("node.BuildScalarTrace")
	m["node.fuse_ms"] = l.perCallMs("node.FuseScalarTrace")
	m["node.annotate_ms"] = l.perCallMs("node.AnnotateTrace")
	m["node.combine_ms"] = l.perCallMs("node.CombineAnnotation")
	m["node.latency_model_ms"] = l.perCallMs("node.BuildLatencyModel")
	m["net.burst_synthesis_ms"] = l.perCallMs("apps.BurstTrace")
	m["cpu.run_timing_ms"] = l.perCallMs("cpu.RunTiming")
	m["node.simulate_annotated_ms"] = l.perCallMs("node.SimulateAnnotated")
	m["node.regions_power_self_ms"] = l.perCallMs("node.SimulateAnnotated.memoized")
	m["net.replay_ms"] = l.perCallMs("net.Replay")
	m["store.artifact_get_us"] = us("ArtifactCache.Blob")
	m["store.artifact_decode_ms"] = l.perCallMs("ArtifactCache.HitRates")
	for k, v := range l.m {
		m[k] = v
	}
}

// simulateBody is the POST /simulate body addressing one key.
func simulateBody(it appPoint) []byte {
	return []byte(fmt.Sprintf(`{"app":%q,"pointIndex":%d}`, it.app, it.point))
}

// runLadder runs every rung once and returns the totals.
func runLadder(e *env, in ladderInput) (*ladder, error) {
	if len(in.items) == 0 {
		return nil, fmt.Errorf("no measurements to build the store fixture from")
	}
	l := &ladder{e: e, op: e.nextOp(), ms: map[string]float64{}, calls: map[string]float64{}, m: metrics{}}
	l.root = e.rec.start(0, l.op, "ladder")
	err := l.requestRungs(in)
	if err == nil {
		err = l.simulationRungs(in)
	}
	e.rec.end(l.root)
	if err != nil {
		return nil, err
	}
	l.table = ladderTable(e.rec.snapshot(), l.op)
	return l, nil
}

// requestRungs times the path of a request that hits the store.
func (l *ladder) requestRungs(in ladderInput) error {
	reps := l.e.cfg.sc.ladderReps
	items := in.items
	keys := make([]string, len(items))
	for i, it := range items {
		k, err := nodeKeyOf(it.app, it.point, in.fid)
		if err != nil {
			return fmt.Errorf("node key: %w", err)
		}
		keys[i] = k
	}
	nb := min(len(items), 512)
	bodies := make([][]byte, nb)
	exps := make([]musa.Experiment, nb)
	for i := range bodies {
		bodies[i] = simulateBody(items[i].appPoint)
		if err := json.Unmarshal(bodies[i], &exps[i]); err != nil {
			return err
		}
		// What Client.fill adds before normalizing.
		exps[i].Sample, exps[i].Warmup, exps[i].Seed = in.fid.sample, in.fid.warmup, simSeed
		exps[i].ReplayRanks, exps[i].Network = replayRanks, network
	}

	if err := l.span(l.root, "json.Unmarshal", reps, func() error {
		for i := 0; i < reps; i++ {
			var ex musa.Experiment
			if err := json.Unmarshal(bodies[i%nb], &ex); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := l.span(l.root, "Experiment.Normalize+Key", reps, func() error {
		for i := 0; i < reps; i++ {
			ne, err := exps[i%nb].Normalize()
			if err != nil {
				return err
			}
			k, err := ne.Key()
			if err != nil {
				return err
			}
			if k != keys[i%nb] {
				return fmt.Errorf("key of request %d is %s, fixture has %s", i%nb, k, keys[i%nb])
			}
		}
		return nil
	}); err != nil {
		return err
	}
	members := []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}
	rg := musa.NewRing(members[0], members)
	if err := l.span(l.root, "Ring.Order", reps, func() error {
		for i := 0; i < reps; i++ {
			if len(rg.Order(keys[i%len(keys)])) != len(members) {
				return fmt.Errorf("ring order lost a member")
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// The store fixture: the workload's measurements under their node keys.
	dir, err := os.MkdirTemp(l.e.tmp, "ladder-store-")
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	err = l.span(l.root, "store.Put", len(items), func() error {
		for i, it := range items {
			if err := st.Put(keys[i], it.m); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		// The most recently put keys are in the decoded front.
		recent := keys[max(0, len(keys)-1024):]
		err = l.span(l.root, "store.Get.front", reps, func() error {
			for i := 0; i < reps; i++ {
				if _, ok := st.Get(recent[i%len(recent)]); !ok {
					return fmt.Errorf("stored key missing")
				}
			}
			return nil
		})
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	// Reopened with a one-entry front, every read reaches the engine.
	if err := l.span(l.root, "store.Open", 1, func() error {
		st, err = store.Open(dir, store.Options{LRUEntries: 1})
		return err
	}); err != nil {
		return err
	}
	err = l.span(l.root, "store.Get.engine", reps, func() error {
		for i := 0; i < reps; i++ {
			// A stride walks the key space instead of one block.
			if _, ok := st.Get(keys[(i*37)%len(keys)]); !ok {
				return fmt.Errorf("stored key missing after reopen")
			}
		}
		return nil
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// A client and a handler on the fixture: hits through Client.Run, through
	// ServeHTTP without a socket, and over one loopback connection.
	c, err := musa.NewClient(clientOptions(in.fid, dir))
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()
	for _, ex := range exps { // fills the decoded front
		if res, err := c.Run(ctx, ex); err != nil || !res.Cached {
			return fmt.Errorf("fixture request is not a store hit: %v", err)
		}
	}
	if err := l.span(l.root, "client.Run.hit", reps, func() error {
		for i := 0; i < reps; i++ {
			if _, err := c.Run(ctx, exps[i%nb]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	h := serve.NewHandler(serve.New(c), serve.WithAdmission(admitLimit, admitQueue),
		serve.WithRegistry(obs.NewRegistry()), serve.WithRecorder(obs.NewRecorder(0)))
	if err := l.span(l.root, "serve.Handler.hit", reps, func() error {
		for i := 0; i < reps; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/simulate", bytes.NewReader(bodies[i%nb])))
			if w.Code != http.StatusOK {
				return fmt.Errorf("status %d", w.Code)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	rep, err := startReplica(c, h)
	if err != nil {
		return err
	}
	cn := newConn()
	lat := make([]float64, 0, reps)
	err = l.span(l.root, "http.roundtrip", reps, func() error {
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			status, _, err := cn.post(rep.url+"/simulate", bodies[i%nb])
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("status %d: %v", status, err)
			}
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		return nil
	})
	cn.close()
	if serr := rep.stopServer(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	l.m["serve.http_overhead_us"] = median(lat) - l.perCallMs("serve.Handler.hit")*1e3

	// The reply encoding of POST /simulate.
	var buf bytes.Buffer
	if err := l.span(l.root, "json.Marshal", reps, func() error {
		for i := 0; i < reps; i++ {
			it := items[i%len(items)]
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(map[string]any{
				"app": it.m.App, "label": it.m.Arch.Label(), "cached": true,
				"elapsedMs": 0.1, "measurement": it.m,
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// One span of the program's own tracer, recorded.
	sctx := obs.WithRecorder(ctx, obs.NewRecorder(1024))
	if err := l.span(l.root, "obs.StartSpan", reps, func() error {
		for i := 0; i < reps; i++ {
			_, sp := obs.StartSpan(sctx, "bench")
			sp.End()
		}
		return nil
	}); err != nil {
		return err
	}

	// Cold node requests: no store, no artifacts, everything rebuilt.
	coldOpts := clientOptions(in.fid, "")
	coldOpts.NoArtifacts = true
	cold, err := musa.NewClient(coldOpts)
	if err != nil {
		return err
	}
	defer cold.Close()
	var firsts []float64
	for i := 0; i < min(3, nb); i++ {
		if err := l.span(l.root, "client.Run.cold", 1, func() error {
			t0 := time.Now()
			_, err := cold.RunStream(ctx, exps[i], musa.Observer{Measurement: func(musa.Measurement) {
				firsts = append(firsts, float64(time.Since(t0).Nanoseconds())/1e6)
			}})
			return err
		}); err != nil {
			return err
		}
	}
	l.m["client.first_result_ms"] = median(firsts)
	return nil
}

// simulationRungs rebuilds what dse.Run builds for in.simApps x in.simPoints.
func (l *ladder) simulationRungs(in ladderInput) error {
	grid := dse.Enumerate()
	model, err := net.ByName(network)
	if err != nil {
		return err
	}
	artDir, err := os.MkdirTemp(l.e.tmp, "ladder-artifacts-")
	if err != nil {
		return err
	}
	ac, err := store.OpenArtifacts(artDir)
	if err != nil {
		return err
	}
	var hitRateKeys []string
	var simUops, timingUops, fuseUops, walkAccesses float64

	for _, name := range in.simApps {
		app, err := musa.App(name)
		if err != nil {
			return err
		}
		appSpan := l.e.rec.start(l.root, l.op, "app")
		appHash := dse.AppHash(app)

		var st node.ScalarTrace
		l.span(appSpan, "node.BuildScalarTrace", 1, func() error {
			st = node.BuildScalarTrace(app, in.fid.sample, in.fid.warmup, simSeed)
			return nil
		})
		fused := map[int]*node.FusedTrace{}
		anns := map[dse.CacheGroup]*node.Annotation{}
		lats := map[[2]int]*dram.LatencyModel{}
		// The replay rescales the burst trace by the measured node speedup,
		// as dse.Run's cluster stage does.
		var tracedIter float64
		for _, spec := range app.Regions {
			tracedIter += spec.LaneWork() / apps.RefLaneThroughput * 1e9
		}
		var burstTrace *trace.Burst
		l.span(appSpan, "apps.BurstTrace", 1, func() error {
			burstTrace = apps.BurstTrace(app, replayRanks[0], simSeed)
			return nil
		})

		for _, pi := range in.simPoints {
			p := grid[pi]
			cfg := p.NodeConfig(in.fid.sample, in.fid.warmup, simSeed)
			ft := fused[p.VectorBits]
			if ft == nil {
				l.span(appSpan, "node.FuseScalarTrace", 1, func() error {
					ft = node.FuseScalarTrace(st, app, p.VectorBits, simSeed)
					return nil
				})
				fused[p.VectorBits] = ft
				fuseUops += float64(len(st.Instrs))
			}
			g := p.CacheGroup()
			ann := anns[g]
			firstOfGroup := ann == nil
			if ann == nil {
				var a node.Annotation
				var hrt node.HitRateTable
				l.span(appSpan, "node.AnnotateTrace", 1, func() error {
					a, hrt = node.AnnotateTrace(ft, cfg)
					return nil
				})
				walkAccesses += float64(len(ft.WarmOps) + len(ft.SampleOps))
				// The warm path overlays a stored table instead of walking.
				if err := l.span(appSpan, "node.CombineAnnotation", 1, func() error {
					if _, ok := node.CombineAnnotation(ft, hrt); !ok {
						return fmt.Errorf("hit-rate table does not match its trace")
					}
					return nil
				}); err != nil {
					return err
				}
				key := dse.HitRateKey(appHash, g, in.fid.sample, in.fid.warmup, simSeed)
				ac.PutHitRates(key, hrt)
				hitRateKeys = append(hitRateKeys, key)
				a.Memo = node.NewTimingMemo()
				ann = &a
				anns[g] = ann
			}
			lk := [2]int{p.Channels, int(p.Mem)}
			lm := lats[lk]
			if lm == nil {
				var m dram.LatencyModel
				l.span(appSpan, "node.BuildLatencyModel", 1, func() error {
					m = node.BuildLatencyModel(app, cfg.Mem, dram.FRFCFS, simSeed)
					return nil
				})
				lm = &m
				lats[lk] = lm
			}
			cfg.LatModel = lm

			if firstOfGroup {
				// The timing replay on its own, at the unloaded latencies.
				l.span(appSpan, "cpu.RunTiming", 1, func() error {
					cpu.RunTiming(cfg.Core, ann.Ann, cpu.LatenciesFor(ann.HierCfg, lm.LatencyNs(0), cfg.FreqGHz))
					return nil
				})
				timingUops += float64(ann.Ann.Len())
			}
			var res node.Result
			l.span(appSpan, "node.SimulateAnnotated", 1, func() error {
				res = node.SimulateAnnotated(app, cfg, *ann)
				return nil
			})
			simUops += float64(ann.Ann.Len())
			if firstOfGroup {
				// Again with every timing replay memoized: what is left is
				// the runtime-system replay, the fixed point and power.
				l.span(appSpan, "node.SimulateAnnotated.memoized", 1, func() error {
					node.SimulateAnnotated(app, cfg, *ann)
					return nil
				})
			}
			scale := res.IterationNs / tracedIter
			l.span(appSpan, "net.Replay", 1, func() error {
				net.Replay(burstTrace, model, func(rank int, traced float64) float64 { return traced * scale })
				return nil
			})
		}

		// One open-loop DRAM run at half the peak bandwidth.
		mem := grid[in.simPoints[0]].NodeConfig(0, 0, simSeed).Mem
		const dramRequests = 3000
		l.span(appSpan, "dram.RunOpenLoop", dramRequests, func() error {
			src := cache.NewAddressGen(app.Locality, xrand.New(simSeed))
			dram.RunOpenLoop(mem, dram.FRFCFS, 0.5*mem.PeakBandwidth(), src, dramRequests, simSeed)
			return nil
		})
		l.e.rec.end(appSpan)
	}

	// Stored hit-rate tables read back by a cache that has never seen them:
	// the raw blob read, and the read plus decode.
	ac2, err := store.OpenArtifacts(artDir)
	if err != nil {
		return err
	}
	for _, key := range hitRateKeys {
		if err := l.span(l.root, "ArtifactCache.Blob", 1, func() error {
			if _, ok := ac2.Blob(key); !ok {
				return fmt.Errorf("stored artifact missing")
			}
			return nil
		}); err != nil {
			return err
		}
		if err := l.span(l.root, "ArtifactCache.HitRates", 1, func() error {
			if _, ok := ac2.HitRates(key); !ok {
				return fmt.Errorf("stored artifact does not decode")
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if err := ac2.Err(); err != nil {
		return err
	}

	l.m["isa.fuse_ns_per_uop"] = share(l.ms["node.FuseScalarTrace"]*1e6, fuseUops)
	l.m["cache.walk_ns_per_access"] = share(l.ms["node.AnnotateTrace"]*1e6, walkAccesses)
	l.m["dram.open_loop_ns_per_request"] = l.perCallMs("dram.RunOpenLoop") * 1e6
	l.m["cpu.host_ns_per_sim_uop"] = share(l.ms["cpu.RunTiming"]*1e6, timingUops)
	l.m["model.sim_uops_per_op"] = simUops
	return nil
}
