package dram

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"musa/internal/sim"
	"musa/internal/xrand"
)

// AddrSource produces memory request addresses; cache.AddressGen satisfies
// it, letting the open-loop runner replay an application's locality profile
// against the memory system.
type AddrSource interface {
	Next() (addr uint64, write bool)
}

// OpenLoopResult summarizes an open-loop experiment.
type OpenLoopResult struct {
	Stats       Stats
	AvgLatency  sim.Time
	AchievedBW  float64 // bytes/second
	OfferedBW   float64 // bytes/second
	Utilization float64 // achieved / peak
}

// openLoopScratch is one RunOpenLoop's working set: the controller with its
// channels, banks and queues, the RNG, the request slab and the touched list.
// RunOpenLoop takes one from openLoopScratches and resets what it uses, so a
// run allocates nothing once the pool holds a scratch that has run the
// largest configuration and request count.
type openLoopScratch struct {
	ctl     Controller
	rng     xrand.RNG
	reqs    []Request
	touched []*channel
}

var openLoopScratches = sync.Pool{New: func() any { return new(openLoopScratch) }}

// RunOpenLoop injects n line requests with exponential inter-arrival times
// targeting the given offered bandwidth (bytes/second), with addresses drawn
// from src, and returns latency and bandwidth measurements. Arrivals come in
// small bursts (burst size 4) to mimic the miss clusters an out-of-order
// core produces, which also gives the FR-FCFS scheduler real choices.
//
// No event engine is involved: drain issues a whole queue at the instant it
// runs, so nothing outlives the instant that created it and the request slab
// is the calendar. The working set comes from a pool and is reset in place;
// the result holds none of it. RunOpenLoop is safe for concurrent use with
// distinct sources.
func RunOpenLoop(cfg Config, policy SchedPolicy, offeredBW float64, src AddrSource, n int, seed uint64) OpenLoopResult {
	sc := openLoopScratches.Get().(*openLoopScratch)
	defer openLoopScratches.Put(sc)
	ctl := &sc.ctl
	ctl.reset(cfg, policy)
	rng := &sc.rng
	rng.Seed(seed)

	const burst = 4
	meanGap := 64.0 * burst / offeredBW // seconds between bursts
	sc.reqs = slices.Grow(sc.reqs[:0], n)[:n]
	reqs := sc.reqs
	t := sim.Time(0)
	for i := 0; i < n; i += burst {
		t += sim.FromSeconds(rng.Exponential(meanGap))
		for j := i; j < min(i+burst, n); j++ {
			addr, write := src.Next()
			reqs[j] = Request{Addr: addr, Write: write, Arrive: t}
		}
	}

	// One instant at a time, in event-list order (referenceRunOpenLoop is the
	// event-driven oracle): first every request of the instant is queued
	// (bursts whose gap truncated to 0 ps meet in the queues, as submit events
	// precede the passes they schedule), then each touched channel drains,
	// channels in first-touch order.
	touched := sc.touched[:0]
	for i := 0; i < n; {
		now := reqs[i].Arrive
		for ; i < n && reqs[i].Arrive == now; i++ {
			chIdx, _, _ := ctl.mapAddr(reqs[i].Addr)
			ch := &ctl.channels[chIdx]
			ch.queue = append(ch.queue, &reqs[i])
			if !ch.scheduling {
				ch.scheduling = true
				touched = append(touched, ch)
			}
		}
		for _, ch := range touched {
			ch.scheduling = false
			ctl.drain(ch, now)
		}
		touched = touched[:0]
	}
	sc.touched = touched

	res := OpenLoopResult{
		Stats:      ctl.Stats,
		AvgLatency: ctl.Stats.AvgLatency(),
		AchievedBW: ctl.Stats.AchievedBandwidth(64),
		OfferedBW:  offeredBW,
	}
	res.Utilization = res.AchievedBW / cfg.PeakBandwidth()
	return res
}

// LatencyModel captures effective memory latency as a function of offered
// load for one (memory config, locality) pair. The node simulator resolves
// its bandwidth-contention fixed point against this curve instead of
// re-running the open-loop model inside every iteration.
type LatencyModel struct {
	PeakBW      float64   // bytes/second
	Points      []float64 // utilization sample points (0..1)
	LatenciesNs []float64 // measured latency at each point
	SatBW       float64   // achieved bandwidth at saturation (bytes/second)
}

// BuildLatencyModel measures the load-latency curve with a handful of
// open-loop runs. mkSrc must return a fresh address source per run.
func BuildLatencyModel(cfg Config, policy SchedPolicy, mkSrc func() AddrSource, reqsPerRun int, seed uint64) LatencyModel {
	points := []float64{0.05, 0.25, 0.5, 0.7, 0.85, 1.0, 1.3}
	m := LatencyModel{PeakBW: cfg.PeakBandwidth()}
	for i, u := range points {
		res := RunOpenLoop(cfg, policy, u*m.PeakBW, mkSrc(), reqsPerRun, seed+uint64(i))
		m.Points = append(m.Points, u)
		m.LatenciesNs = append(m.LatenciesNs, res.AvgLatency.Nanoseconds())
		if res.AchievedBW > m.SatBW {
			m.SatBW = res.AchievedBW
		}
	}
	return m
}

// LatencyNs interpolates the effective latency at the given offered
// bandwidth (bytes/second). Beyond the measured range the last point's
// latency is scaled by the overload factor, modeling unbounded queueing.
func (m LatencyModel) LatencyNs(offeredBW float64) float64 {
	if len(m.Points) == 0 {
		return 0
	}
	u := offeredBW / m.PeakBW
	if u <= m.Points[0] {
		return m.LatenciesNs[0]
	}
	for i := 1; i < len(m.Points); i++ {
		if u <= m.Points[i] {
			f := (u - m.Points[i-1]) / (m.Points[i] - m.Points[i-1])
			return m.LatenciesNs[i-1] + f*(m.LatenciesNs[i]-m.LatenciesNs[i-1])
		}
	}
	last := m.LatenciesNs[len(m.LatenciesNs)-1]
	return last * (u / m.Points[len(m.Points)-1])
}

// Bounds of a latency curve LatencyNs can answer from. They lie orders of
// magnitude past any fitted curve (peaks of 1e10–1e12 B/s, sample points
// 0.05–1.3, latencies of tens to thousands of ns) and keep every latency the
// curve interpolates or extrapolates finite.
const (
	maxCurveBW        = 1e18 // bytes/second
	maxCurvePoint     = 1e6  // utilization
	minCurveLastPoint = 1e-6 // utilization
	maxCurveLatencyNs = 1e12
)

// Validate reports why m is not a curve LatencyNs can answer from, or nil.
// PeakBW is positive and SatBW non-negative, both finite; there is one
// latency per sample point and at least one point; the points are
// non-negative and strictly increasing — interpolation divides by their gaps
// and extrapolation by the last, which must be positive; the latencies are
// non-negative; and everything lies within the curve bounds above. A fitted
// curve always passes; a decoded one must be checked before its first use.
func (m LatencyModel) Validate() error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch {
	case !finite(m.PeakBW) || m.PeakBW <= 0 || m.PeakBW > maxCurveBW:
		return fmt.Errorf("dram: latency curve peak bandwidth %v", m.PeakBW)
	case !finite(m.SatBW) || m.SatBW < 0 || m.SatBW > maxCurveBW:
		return fmt.Errorf("dram: latency curve saturation bandwidth %v", m.SatBW)
	case len(m.Points) == 0 || len(m.Points) != len(m.LatenciesNs):
		return fmt.Errorf("dram: latency curve of %d points and %d latencies", len(m.Points), len(m.LatenciesNs))
	case m.Points[len(m.Points)-1] < minCurveLastPoint:
		return fmt.Errorf("dram: latency curve ends at utilization %v", m.Points[len(m.Points)-1])
	}
	for i, u := range m.Points {
		if !finite(u) || u < 0 || u > maxCurvePoint || i > 0 && u <= m.Points[i-1] {
			return fmt.Errorf("dram: latency curve point %d at utilization %v", i, u)
		}
	}
	for i, ns := range m.LatenciesNs {
		if !finite(ns) || ns < 0 || ns > maxCurveLatencyNs {
			return fmt.Errorf("dram: latency curve point %d at %v ns", i, ns)
		}
	}
	return nil
}
