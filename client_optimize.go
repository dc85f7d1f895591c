package musa

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"musa/internal/apps"
	"musa/internal/obs"
	"musa/internal/opt"
)

// runOptimize executes a KindOptimize experiment: a successive-halving
// search whose every probe is an ordinary content-addressed sweep
// experiment. Each rung runs through runSweep — store lookup first,
// single-flight coalescing, artifact reuse, fleet shard dispatch when
// workers are configured — so search traffic warms the same caches grid
// sweeps use, and a store warmed by either shortcuts the other. Cheap
// rungs probe at a reduced detailed sample (full warmup, replay dropped);
// the top rung reuses the experiment's own fidelity and replay fields
// verbatim, which makes its probe store keys byte-identical to an
// equivalent KindSweep over the same points.
//
// The returned OptimizeResult is deterministic: rung history, frontier
// and cost accounting carry no timing or cache-state information, so a
// cache-warm re-run returns byte-identical results.
func (c *Client) runOptimize(ctx context.Context, ne Experiment, watch Observer) (*Result, error) {
	spec := *ne.Optimize
	candidates := ne.PointIndices
	if candidates == nil {
		candidates = make([]int, PointCount())
		for i := range candidates {
			candidates[i] = i
		}
	}
	fullSample, fullWarmup := apps.EffectiveFidelity(ne.Sample, ne.Warmup)
	ladder := opt.Schedule(len(candidates), spec.Eta, spec.Rungs, spec.Finalists)

	result := &OptimizeResult{
		App:        ne.App,
		Objectives: spec.Objectives,
		MaxPowerW:  spec.MaxPowerW,
		Candidates: len(candidates),
	}
	res := &Result{Kind: KindOptimize, Optimize: result}

	// Cumulative probe progress across rungs for the Observer.
	totalProbes := 0
	for _, r := range ladder {
		totalProbes += r.Candidates
	}
	doneProbes, cachedProbes := 0, 0

	grid := tableIGrid()
	alive := candidates
	for i, rung := range ladder {
		final := i == len(ladder)-1
		probe := Experiment{
			Kind: KindSweep, Apps: []string{ne.App}, PointIndices: alive,
			Seed: ne.Seed, Recompute: ne.Recompute,
		}
		if final {
			// Fidelity and replay verbatim from the experiment: the top
			// rung's store keys equal an equivalent grid sweep's.
			probe.Sample, probe.Warmup = ne.Sample, ne.Warmup
			probe.ReplayRanks, probe.NoReplay, probe.Network = ne.ReplayRanks, ne.NoReplay, ne.Network
		} else {
			probe.Sample = max(spec.MinSample, int64(rung.Fraction*float64(fullSample)))
			// Cheap rungs keep the FULL warmup: the detailed sample window is
			// [warmup, warmup+sample) of one seeded instruction stream, so a
			// shortened warmup would shift the window and probe a different
			// phase mix — rankings across rungs would then disagree for
			// reasons that have nothing to do with the architecture. With the
			// warmup pinned, every cheap probe measures a prefix of the full-
			// fidelity window and only the (expensive) detailed-sample length
			// varies.
			probe.Warmup = fullWarmup
			probe.NoReplay = true
		}
		pne, err := probe.normalize(c.knowsApp)
		if err != nil {
			return nil, err // unreachable: derived from a normalized experiment
		}

		fidelity := "cheap"
		if final {
			fidelity = "full"
		}
		if final {
			c.optProbesFull.Add(int64(len(alive)))
		} else {
			c.optProbesCheap.Add(int64(len(alive)))
		}
		rctx, span := obs.StartSpan(ctx, "opt.rung",
			obs.A("rung", strconv.Itoa(i)),
			obs.A("fidelity", fidelity),
			obs.A("candidates", strconv.Itoa(len(alive))))
		start := time.Now()

		base, baseCached := doneProbes, cachedProbes
		inner := Observer{
			Progress: func(d, t, cach int) {
				doneProbes, cachedProbes = base+d, baseCached+cach
				if watch.Progress != nil {
					watch.Progress(doneProbes, totalProbes, cachedProbes)
				}
			},
			Measurement: func(m Measurement) {
				_, ps := obs.StartSpan(rctx, "opt.probe",
					obs.A("app", m.App), obs.A("arch", m.Arch.Label()))
				ps.End()
				if watch.Measurement != nil {
					watch.Measurement(m)
				}
			},
		}
		sres, err := c.runSweep(rctx, pne, inner)
		span.End()
		if h := c.optRungHist.Load(); h != nil {
			h.Observe(time.Since(start).Seconds())
		}
		if err != nil {
			// Hand back the rung history gathered so far alongside the
			// error, mirroring the partial dataset a canceled sweep returns.
			return res, fmt.Errorf("musa: optimize canceled in rung %d/%d: %w", i, len(ladder), err)
		}

		// Evaluate the rung: measurements map back to grid indices by label.
		byLabel := make(map[string]int, len(alive))
		for _, idx := range alive {
			byLabel[grid[idx].Label()] = idx
		}
		pts := make([]opt.Point, 0, len(alive))
		byIndex := make(map[int]Measurement, len(alive))
		for _, m := range sres.Sweep.Measurements {
			idx, ok := byLabel[m.Arch.Label()]
			if !ok {
				return res, fmt.Errorf("musa: optimize rung %d returned unknown configuration %q", i, m.Arch.Label())
			}
			byIndex[idx] = m
			vals := objectiveValues(m)
			pts = append(pts, opt.Point{
				ID:       idx,
				Metrics:  vals.vector(spec.Objectives),
				Feasible: spec.MaxPowerW <= 0 || m.Power.Total() <= spec.MaxPowerW,
			})
		}
		if len(pts) != len(alive) {
			return res, fmt.Errorf("musa: optimize rung %d probed %d of %d configurations", i, len(pts), len(alive))
		}

		esample, _ := apps.EffectiveFidelity(probe.Sample, probe.Warmup)
		summary := RungSummary{
			Rung:             i,
			Candidates:       len(alive),
			FidelityFraction: rung.Fraction,
			Sample:           probe.Sample,
			Warmup:           probe.Warmup,
			Replay:           final && !ne.NoReplay,
			CostInstrs:       int64(len(alive)) * esample,
		}
		result.ProbeCostInstrs += summary.CostInstrs

		if final {
			front := opt.Front(pts)
			result.Infeasible = spec.MaxPowerW > 0 && !front[0].Feasible
			for _, p := range front {
				m := byIndex[p.ID]
				label, _ := PointLabel(p.ID) // normalized: in range
				fp := FrontierPoint{
					PointIndex:  p.ID,
					Label:       label,
					Arch:        archOfPoint(grid[p.ID]),
					Objectives:  objectiveValues(m),
					PowerW:      m.Power.Total(),
					Feasible:    p.Feasible,
					Measurement: &m,
				}
				result.Frontier = append(result.Frontier, fp)
				summary.Survivors = append(summary.Survivors, p.ID)
			}
			result.Best = bestOf(result.Frontier, spec.Objectives)
		} else {
			alive = opt.Select(pts, ladder[i+1].Candidates)
			summary.Survivors = alive
		}
		result.Rungs = append(result.Rungs, summary)
		if watch.Rung != nil {
			watch.Rung(summary)
		}
	}

	result.GridCostInstrs = int64(len(candidates)) * fullSample
	result.CostRatio = float64(result.ProbeCostInstrs) / float64(result.GridCostInstrs)
	return res, nil
}

// bestOf picks the recommended configuration off the frontier: minimum
// EDP when that objective is enabled (the paper's efficiency headline),
// else minimum first enabled objective; ties break on point index via
// the frontier's ascending order. Feasible points win over infeasible.
func bestOf(frontier []FrontierPoint, objectives []string) *FrontierPoint {
	if len(frontier) == 0 {
		return nil
	}
	metric := func(fp FrontierPoint) float64 {
		v := fp.Objectives.vector(objectives)
		if len(v) == 0 {
			return fp.Objectives.EDP
		}
		for i, name := range objectives {
			if name == ObjectiveEDP {
				return v[i]
			}
		}
		return v[0]
	}
	best, bestVal := -1, math.Inf(1)
	for i, fp := range frontier {
		v := metric(fp)
		switch {
		case best < 0,
			fp.Feasible && !frontier[best].Feasible,
			fp.Feasible == frontier[best].Feasible && v < bestVal:
			best, bestVal = i, v
		}
	}
	fp := frontier[best]
	return &fp
}
