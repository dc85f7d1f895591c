package node

import (
	"testing"

	"musa/internal/apps"
	"musa/internal/cpu"
)

// TestConvergedReportsHowTheFixedPointStopped pins node.Result.Converged on
// both outcomes: SP-MZ on the low-end core with 256 KB of L2 per core over
// four DDR4 channels is still moving by more than 1 ns at the six-iteration
// cap at this fidelity, while the same node without contention has no fixed
// point to miss. A point that stops before the cap has converged.
func TestConvergedReportsHowTheFixedPointStopped(t *testing.T) {
	cfg := baseCfg()
	cfg.Core = cpu.LowEnd()
	cfg.L2KBPerCore, cfg.L3MBTotal = 256, 32
	cfg.SampleInstrs, cfg.WarmupInstrs = 20000, 40000
	app := apps.SPMZ()

	capped := Simulate(app, cfg)
	if capped.Converged || capped.Iterations != 6 {
		t.Errorf("capped point: converged %v after %d iterations, want false after 6", capped.Converged, capped.Iterations)
	}
	cfg.DisableContention = true
	if off := Simulate(app, cfg); !off.Converged || off.Iterations != 1 {
		t.Errorf("no contention: converged %v after %d iterations, want true after 1", off.Converged, off.Iterations)
	}
	cfg = baseCfg()
	cfg.SampleInstrs, cfg.WarmupInstrs = 20000, 40000
	if r := Simulate(apps.BTMZ(), cfg); r.Iterations < 6 && !r.Converged {
		t.Errorf("stopped after %d iterations without converging", r.Iterations)
	}
}

// TestCompiledGraphsAllocateNothingPerIteration pins the region replay of the
// fixed point: once a simulation's scratch has grown, replaying its compiled
// graphs at a new lane throughput allocates nothing.
func TestCompiledGraphsAllocateNothingPerIteration(t *testing.T) {
	rr := regionGraphs(apps.Hydro(), 1)
	cfg := baseCfg()
	replayRegions(rr, cfg, apps.RefLaneThroughput)
	tp := apps.RefLaneThroughput
	if allocs := testing.AllocsPerRun(10, func() {
		tp *= 1.01
		replayRegions(rr, cfg, tp)
	}); allocs != 0 {
		t.Errorf("%v allocations per region replay, want 0", allocs)
	}
}

// TestTimingMemoKeepsItsGraphs holds a memo to the (application, seed) whose
// task graphs it compiled first: the same pair gets the same graphs, and
// another application or seed panics instead of scheduling the wrong graphs.
func TestTimingMemoKeepsItsGraphs(t *testing.T) {
	tm := NewTimingMemo()
	hydro := apps.Hydro()
	first := tm.regions(hydro, 1)
	if again := tm.regions(apps.Hydro(), 1); again.graphs[0] != first.graphs[0] {
		t.Error("the same application and seed compiled its graphs again")
	}
	for _, c := range []struct {
		app  *apps.Profile
		seed uint64
	}{{apps.SPMZ(), 1}, {hydro, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s at seed %d: no panic on a memo of hydro at seed 1", c.app.Name, c.seed)
				}
			}()
			tm.regions(c.app, c.seed)
		}()
	}
}

// TestReplaysCountRunTimingCalls pins Result.Replays to the timing replays a
// simulation runs. Every replay under a memo puts one entry no earlier
// replay put, so over points of one annotation simulated one after another
// the replays sum to the memo's entries, each point's to no more than its
// iterations, and simulating the points again replays nothing. Without a
// memo a point replays at least once, and once only when there is no fixed
// point to iterate.
func TestReplaysCountRunTimingCalls(t *testing.T) {
	app := apps.SPMZ()
	cfg := baseCfg()
	cfg.SampleInstrs, cfg.WarmupInstrs = 20000, 40000
	lm := BuildLatencyModel(app, cfg.Mem, cfg.DRAMPolicy, cfg.Seed)
	cfg.LatModel = &lm
	ann := BuildAnnotation(app, cfg)
	ann.Memo = NewTimingMemo()
	var cfgs []Config
	for _, core := range cpu.AllConfigs() {
		for _, ghz := range []float64{1.5, 2.0, 3.0} {
			c := cfg
			c.Core, c.FreqGHz = core, ghz
			cfgs = append(cfgs, c)
		}
	}
	replays, iterations := 0, 0
	for _, c := range cfgs {
		r := SimulateAnnotated(app, c, ann)
		if r.Replays > r.Iterations {
			t.Errorf("%s at %v GHz: %d replays in %d iterations", c.Core.Name, c.FreqGHz, r.Replays, r.Iterations)
		}
		replays += r.Replays
		iterations += r.Iterations
	}
	if entries := len(ann.Memo.m); replays != entries || replays == 0 {
		t.Errorf("%d replays counted, the memo holds %d", replays, entries)
	}
	if replays >= iterations {
		t.Errorf("%d replays in %d iterations: no iteration reused a replay", replays, iterations)
	}
	for _, c := range cfgs {
		if r := SimulateAnnotated(app, c, ann); r.Replays != 0 {
			t.Errorf("%s at %v GHz: %d replays with every latency table in the memo", c.Core.Name, c.FreqGHz, r.Replays)
		}
	}

	ann.Memo = nil
	if r := SimulateAnnotated(app, cfg, ann); r.Replays < 1 || r.Replays > r.Iterations {
		t.Errorf("without a memo: %d replays in %d iterations", r.Replays, r.Iterations)
	}
	cfg.DisableContention = true
	if r := SimulateAnnotated(app, cfg, ann); r.Replays != 1 {
		t.Errorf("without contention: %d replays, want 1", r.Replays)
	}
}

// TestResetMemoAndSharedGraphsMatchFreshOnes: one memo Reset between the
// annotations of two applications, and task graphs compiled once and carried
// by each annotation (Annotation.Graphs), give every point the result and the
// replay count a fresh memo that compiles its own graphs gives. Once a Reset
// memo has held as many entries, filling it again allocates nothing; graphs
// of another application or seed panic.
func TestResetMemoAndSharedGraphsMatchFreshOnes(t *testing.T) {
	shared := NewTimingMemo()
	for _, app := range []*apps.Profile{apps.SPMZ(), apps.Hydro()} {
		cfg := baseCfg()
		cfg.SampleInstrs, cfg.WarmupInstrs = 20000, 40000
		lm := BuildLatencyModel(app, cfg.Mem, cfg.DRAMPolicy, cfg.Seed)
		cfg.LatModel = &lm
		fresh := BuildAnnotation(app, cfg)
		fresh.Memo = NewTimingMemo()
		reused := fresh
		shared.Reset()
		reused.Memo, reused.Graphs = shared, CompileTaskGraphs(app, cfg.Seed)
		for _, core := range cpu.AllConfigs() {
			for _, ghz := range []float64{1.5, 3.0} {
				c := cfg
				c.Core, c.FreqGHz = core, ghz
				want, got := SimulateAnnotated(app, c, fresh), SimulateAnnotated(app, c, reused)
				if got.ComputeNs != want.ComputeNs || got.Replays != want.Replays || got.EnergyJ != want.EnergyJ ||
					got.CoreRes != want.CoreRes || got.MemLatencyNs != want.MemLatencyNs {
					t.Errorf("%s, %s at %v GHz: a reset memo with shared graphs gives %+v, a fresh one %+v",
						app.Name, core.Name, ghz, got, want)
				}
			}
		}
		if len(shared.m) != len(fresh.Memo.m) {
			t.Errorf("%s: the reset memo holds %d entries, the fresh one %d", app.Name, len(shared.m), len(fresh.Memo.m))
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on graphs compiled at another seed", app.Name)
				}
			}()
			other := reused
			other.Graphs = CompileTaskGraphs(app, cfg.Seed+1)
			SimulateAnnotated(app, cfg, other)
		}()
	}
	if raceEnabled {
		return
	}
	n := len(shared.m)
	var r cpu.Result
	if allocs := testing.AllocsPerRun(10, func() {
		shared.Reset()
		for i := range n {
			shared.put(cpu.LowEnd(), cpu.LevelLatencies{Mem: int64(i)}, r)
		}
	}); allocs != 0 {
		t.Errorf("refilling a reset memo with %d entries allocates %v times, want 0", n, allocs)
	}
}
