package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"musa"
)

// appPoint names one key of the design space.
type appPoint struct {
	app   string
	point int // Table I grid index
}

// item is one stored measurement and the key that addresses it.
type item struct {
	appPoint
	m musa.Measurement
}

// itemsOf maps a sweep dataset back onto grid indices (datasets are sorted
// by application and architecture label, not by index).
func itemsOf(ms []musa.Measurement, points []int) ([]item, error) {
	byLabel := make(map[string]int, len(points))
	for _, i := range points {
		label, err := musa.PointLabel(i)
		if err != nil {
			return nil, err
		}
		byLabel[label] = i
	}
	items := make([]item, 0, len(ms))
	for _, m := range ms {
		i, ok := byLabel[m.Arch.Label()]
		if !ok {
			return nil, fmt.Errorf("measurement %s %s is not a requested point", m.App, m.Arch.Label())
		}
		items = append(items, item{appPoint{m.App, i}, m})
	}
	return items, nil
}

// sweepOp is the one experiment both sweep workloads run: all five
// applications over the 64-core 2 GHz slice, 360 points, recomputed every
// time. The seed only shuffles the order the request lists applications and
// points in; the program normalizes both, so every op computes the same
// dataset.
func sweepOp(rng *rand.Rand, points []int) musa.Experiment {
	apps := appNames()
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	idx := append([]int(nil), points...)
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return musa.Experiment{
		Kind:         musa.KindSweep,
		Apps:         apps,
		PointIndices: idx,
		Recompute:    true,
	}
}

// sweepRun is the state of one sweep workload after set-up.
type sweepRun struct {
	e      *env
	c      *musa.Client
	points []int
	digest *digestChecker
	res    *result
	last   []musa.Measurement
}

// op runs one sweep op under the recorder (nil: untraced) and returns its
// latency and the time to its first streamed measurement. A failed run or a
// dataset whose digest differs counts as a failed op.
func (s *sweepRun) op(rec *recorder, timed bool) (latency, first time.Duration) {
	exp := sweepOp(s.e.rng, s.points)
	body, _ := json.Marshal(exp) // a struct of strings and ints cannot fail
	s.e.foldInto(timed).Write(body)
	s.res.attempted++

	op := s.e.nextOp()
	root := rec.start(0, op, "op")
	call := rec.start(root, op, "client.run")
	t0 := time.Now()
	var watch musa.Observer
	if rec != nil {
		watch.Measurement = func(musa.Measurement) {
			if first == 0 {
				first = time.Since(t0)
			}
		}
	}
	out, err := s.c.RunStream(context.Background(), exp, watch)
	latency = time.Since(t0)
	rec.end(call)
	rec.end(root)
	if err != nil {
		s.res.fail("sweep op: %v", err)
		return latency, first
	}
	s.last = out.Sweep.Measurements
	if err := s.digest.check(s.last); err != nil {
		s.res.fail("sweep op: %v", err)
	}
	return latency, first
}

// timed runs sweep ops back to back for at least d (and at least minBlocks
// ops); every op is one block.
func (s *sweepRun) timed(d time.Duration, rec *recorder) (*phase, []float64) {
	p := &phase{probe: s.e.probe} // compute-bound: reported as measured
	var firsts []float64
	p.begin()
	for len(p.blocks) < s.e.cfg.sc.minBlocks || p.elapsed() < d {
		p.beginBlock()
		lat, first := s.op(rec, true)
		p.endBlock(len(s.points)*len(appNames()), []float64{float64(lat.Nanoseconds()) / 1e6})
		firsts = append(firsts, float64(first.Nanoseconds())/1e6)
	}
	p.end()
	return p, firsts
}

// runSweep is sweep-cold (warm false) and sweep-warm (warm true).
//
// sweep-cold has no artifact cache: every op rebuilds 15 fused traces, 45
// cache walks, 10 DRAM curves and 5 burst traces and runs 360 timing
// replays, MPI replays and store puts. sweep-warm primes an artifact
// directory with one op during set-up: the cache walks, curve fits and burst
// builds are then exactly zero, and what remains is the run-local fuse, the
// annotation overlay, timing replay, runtime system, power, MPI replay and
// store puts.
func runSweep(e *env, warm bool) (*result, error) {
	name := "sweep-cold"
	if warm {
		name = "sweep-warm"
	}
	points, err := sliceIndices()
	if err != nil {
		return nil, fmt.Errorf("setup: slice indices: %w", err)
	}
	s := &sweepRun{e: e, points: points, digest: newDigestChecker(e.cfg.sc, goldenSweep),
		res: &result{m: metrics{}}}

	// Set-up: a fresh store directory, a client on it, the priming op of the
	// warm workload, and one untimed warm-up op.
	var setups []float64
	for r := 0; r < e.cfg.sc.setupRepeats[name]; r++ {
		if s.c != nil {
			if err := s.c.Close(); err != nil {
				return nil, fmt.Errorf("setup: close client: %w", err)
			}
		}
		t0 := time.Now()
		dir, err := os.MkdirTemp(e.tmp, "store-")
		if err != nil {
			return nil, fmt.Errorf("setup: store dir: %w", err)
		}
		opts := clientOptions(e.cfg.sc.fid, dir)
		opts.NoArtifacts = !warm
		if s.c, err = musa.NewClient(opts); err != nil {
			return nil, fmt.Errorf("setup: open client: %w", err)
		}
		if warm {
			s.op(nil, false) // primes the artifact directory
		}
		s.op(nil, false)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.c.Close()
	if s.res.failed > 0 {
		return nil, fmt.Errorf("setup: warm-up op failed: %v", s.res.failures)
	}
	s.res.m["setup_s"] = median(setups)

	untraced, traced := e.phaseLengths()
	base, _ := s.timed(untraced, nil)
	if err := base.endToEnd(s.res); err != nil {
		return nil, err
	}
	if e.cfg.traced {
		before := readCounters([]*musa.Client{s.c}, nil)
		p, firsts := s.timed(traced, e.rec)
		after := readCounters([]*musa.Client{s.c}, nil)
		p.layers(s.res.m, s.res.failed)
		counterLayers(s.res.m, before, after, len(p.blocks))
		s.res.m["trace.overhead_share"] = median(p.latMs)/median(base.latMs) - 1

		items, err := itemsOf(s.last, points)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		lad, err := runLadder(e, ladderInput{
			fid: e.cfg.sc.fid, items: items, simApps: appNames(), simPoints: points,
		})
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		lad.fill(s.res.m)
		s.res.m["client.first_result_ms"] = median(firsts)
		s.res.m["model.ipc_mean"] = ipcMean(items)
		// One op's work, rung by rung, against the op's wall time on both
		// sweep workers. What is left is orchestration, GC, contention
		// between the workers and anything the ladder does not name.
		rungs := []string{"node.BuildScalarTrace", "node.FuseScalarTrace", "node.SimulateAnnotated", "net.Replay", "store.Put"}
		if warm {
			rungs = append(rungs, "node.CombineAnnotation")
		} else {
			rungs = append(rungs, "node.AnnotateTrace", "node.BuildLatencyModel", "apps.BurstTrace")
		}
		opWall := median(p.latMs) * sweepWorkers
		s.res.m["dse.unattributed_share"] = 1 - lad.opMs(rungs)/opWall
		s.res.whereTime = lad.table
	}
	return s.res, nil
}
